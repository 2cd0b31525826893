// Logical schema: the schema-version-independent description of the data
// that both the old and new application versions share.
//
// Entities (customer, order, item, ...) carry attributes; many-to-one
// relationships (order -> customer) are modeled as foreign-key attributes.
// A physical schema (physical_schema.h) is one particular materialization of
// this logical schema into tables; queries are written against *attributes*
// and survive any physical reorganization (the paper's query rewriting).
//
// Attribute names are globally unique (TPC-W style prefixes: c_name, o_date)
// so a physical column name identifies its logical attribute in any table.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/type.h"
#include "common/status.h"

namespace pse {

using EntityId = size_t;
using AttrId = size_t;
constexpr size_t kInvalidId = static_cast<size_t>(-1);

/// One logical attribute.
struct LogicalAttribute {
  std::string name;  ///< globally unique
  TypeId type = TypeId::kInt64;
  uint32_t avg_width = 0;  ///< average width for VARCHAR
  EntityId entity = kInvalidId;
  bool is_key = false;
  /// For foreign-key attributes: the referenced entity.
  std::optional<EntityId> references;
  /// True if this attribute exists only in the object schema (it must be
  /// introduced by a CreateTable operator during migration).
  bool is_new = false;
};

/// One logical entity.
struct LogicalEntity {
  std::string name;
  AttrId key = kInvalidId;
  std::vector<AttrId> attributes;  ///< includes the key and any FKs
};

/// \brief The attribute/entity/relationship universe.
///
/// Name and FK-chain lookups read indexes that the Add* calls keep current,
/// so a built schema answers them without searching and without allocating.
/// A schema is immutable once built; concurrent lookups are then safe.
class LogicalSchema {
 public:
  /// Adds an entity along with its key attribute (BIGINT by default; string
  /// keys are allowed for natural-key entities). Returns entity id.
  EntityId AddEntity(const std::string& name, const std::string& key_attr_name,
                     TypeId key_type = TypeId::kInt64, uint32_t key_width = 0);

  /// Adds a plain attribute; `is_new` marks object-schema-only attributes.
  Result<AttrId> AddAttribute(EntityId entity, const std::string& name, TypeId type,
                              uint32_t avg_width = 0, bool is_new = false);

  /// Adds a many-to-one foreign key attribute `entity -> target` (BIGINT).
  Result<AttrId> AddForeignKey(EntityId entity, const std::string& name, EntityId target);

  size_t num_entities() const { return entities_.size(); }
  size_t num_attributes() const { return attrs_.size(); }
  const LogicalEntity& entity(EntityId e) const { return entities_[e]; }
  const LogicalAttribute& attr(AttrId a) const { return attrs_[a]; }

  Result<EntityId> EntityByName(const std::string& name) const;
  /// The attribute named `name` ignoring case; the first added wins when
  /// two share a name (only an entity key can repeat one).
  Result<AttrId> AttrByName(const std::string& name) const;

  /// True if `from` reaches `to` through a chain of many-to-one FKs
  /// (or from == to).
  bool Reaches(EntityId from, EntityId to) const;

  /// The FK attributes along the shortest chain from -> to, a view into the
  /// schema's chain table that stays valid while the schema does. Empty
  /// when from == to; NotFound when unreachable. Among equally short chains
  /// the one a breadth-first search in attribute-id order meets first is
  /// returned.
  Result<std::span<const AttrId>> FkPath(EntityId from, EntityId to) const;

  /// The unique entity among `entities` that reaches all the others, or
  /// NotFound. This is the natural anchor of an attribute group.
  Result<EntityId> CommonAnchor(const std::vector<EntityId>& entities) const;

 private:
  /// Refills fk_chains_ with one breadth-first search per source entity.
  void RebuildFkChains();

  /// Hash and equality of names ignoring ASCII case; transparent, so a
  /// lookup by std::string_view builds no key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const;
  };
  struct NameEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const;
  };

  std::vector<LogicalEntity> entities_;
  std::vector<LogicalAttribute> attrs_;
  /// Attribute id by name ignoring case; the first added keeps a name.
  std::unordered_map<std::string, AttrId, NameHash, NameEq> attr_index_;
  /// fk_chains_[from * num_entities() + to]: the chain's FK attributes, or
  /// nullopt when `to` is unreachable. Rebuilt by AddEntity and
  /// AddForeignKey (a plain attribute adds no FK edge).
  std::vector<std::optional<std::vector<AttrId>>> fk_chains_;
};

/// Per-attribute statistics used to synthesize virtual-table statistics.
struct LogicalAttrStats {
  uint64_t num_distinct = 0;
  std::optional<int64_t> min;  ///< for BIGINT attributes
  std::optional<int64_t> max;
  double null_fraction = 0.0;
};

/// Snapshot of "data statistic" (the D in the paper): entity cardinalities
/// plus per-attribute stats. Changes across migration phases as data grows.
struct LogicalStats {
  std::vector<uint64_t> entity_rows;      ///< by EntityId
  std::vector<LogicalAttrStats> attrs;    ///< by AttrId

  void Resize(const LogicalSchema& schema) {
    entity_rows.resize(schema.num_entities(), 0);
    attrs.resize(schema.num_attributes());
  }
};

}  // namespace pse

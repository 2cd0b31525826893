// LogicalDatabase: entity-level data, independent of physical layout.
//
// The data generator (e.g. TPC-W) populates entity rows once; any physical
// schema can then be materialized from them, and the migration executor uses
// them as the source of truth for CreateTable operators (values of new
// attributes). This guarantees that every physical layout of the same
// LogicalDatabase returns identical query results — the invariant the
// equivalence property tests check.
#pragma once

#include <unordered_map>
#include <vector>

#include "catalog/tuple.h"
#include "core/logical_schema.h"
#include "core/physical_schema.h"
#include "storage/database.h"

namespace pse {

/// Builds the secondary (foreign-key) B+ tree indexes of one materialized
/// table; the primary-key index is created automatically by CreateTable.
/// Used by Materialize and by the MigrationExecutor so physical databases
/// always match VirtualSchemaCatalog::HasIndex.
Status EnsureSecondaryIndexes(Database* db, const PhysicalSchema& schema, size_t table_idx);

/// \brief Rows per entity, keyed by the entity's primary key.
class LogicalDatabase {
 public:
  explicit LogicalDatabase(const LogicalSchema* logical);

  const LogicalSchema& logical() const { return *logical_; }

  /// Adds one entity row; `row[i]` is the value of `entity.attributes[i]`.
  /// The key must be a non-null BIGINT, unique within the entity.
  Status AddRow(EntityId entity, Row row);

  size_t NumRows(EntityId entity) const { return rows_[entity].size(); }
  const std::vector<Row>& Rows(EntityId entity) const { return rows_[entity]; }

  /// Row of `entity` with the given key, or nullptr.
  const Row* FindByKey(EntityId entity, int64_t key) const;

  /// Sets `attrs[i] := values[i]` on the row of `entity` with `key`.
  /// Rewriting the key attribute itself is rejected; a missing key is
  /// NotFound (callers mirroring idempotent DML treat that as a no-op).
  Status UpdateRow(EntityId entity, int64_t key,
                   const std::vector<AttrId>& attrs,
                   const std::vector<Value>& values);

  /// Removes the row of `entity` with `key`; NotFound if absent. Dangling
  /// FKs in other entities are left as-is — resolution treats them as NULL,
  /// matching the physical rewriter's fan-clear semantics.
  Status DeleteRow(EntityId entity, int64_t key);

  /// Value of `attr` within an entity row (attr must belong to the entity).
  Result<Value> AttrOfRow(EntityId entity, const Row& row, AttrId attr) const;

  /// Value of `attr` as seen from an anchor row, following the FK chain.
  /// NULL if any FK on the way is NULL or dangling.
  Result<Value> ResolveAttr(EntityId anchor, const Row& anchor_row, AttrId attr) const;

  /// Computes entity cardinalities and per-attribute statistics.
  LogicalStats ComputeStats() const;

  /// Statistics over only the first visible[e] rows of each entity (data
  /// growth support: later phases see longer prefixes).
  LogicalStats ComputeStatsPrefix(const std::vector<size_t>& visible) const;

  /// Creates and loads every table of `schema` into `db`, then ANALYZEs.
  Status Materialize(Database* db, const PhysicalSchema& schema) const;

  /// Creates and loads `schema`, restricted to the first visible[e] rows of
  /// each entity (empty vector = everything).
  Status MaterializePrefix(Database* db, const PhysicalSchema& schema,
                           const std::vector<size_t>& visible) const;

  /// Loads rows [from[e], to[e]) of each entity into the already-
  /// materialized `schema` tables (incremental growth between phases).
  Status MaterializeRange(Database* db, const PhysicalSchema& schema,
                          const std::vector<size_t>& from,
                          const std::vector<size_t>& to) const;

  /// Builds the physical row of `schema` table `table_idx` for one anchor
  /// row (exposed for the migration executor).
  Result<Row> BuildTableRow(const PhysicalSchema& schema, size_t table_idx,
                            const Row& anchor_row) const;

 private:
  const LogicalSchema* logical_;
  std::vector<std::vector<Row>> rows_;  // by entity
  std::vector<std::unordered_map<int64_t, size_t>> key_index_;
};

}  // namespace pse

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

/// \brief How to build one physical table's rows from its anchor entity's
/// rows, resolved once per table by LogicalDatabase::PlanTableRows.
///
/// A column is read either from the anchor row itself or from a parent row
/// reached over a chain of FK hops (the table's FK path from the anchor to
/// the column's entity). Hops form a tree: columns whose chains share a
/// prefix share its hops, so each parent row is looked up once per row.
struct TableRowPlan {
  // Rows are numbered per anchor row: 0 is the anchor row itself, h + 1
  // the parent row hop h reaches.
  struct Hop {
    size_t from = 0;               ///< row holding the FK
    size_t fk_pos = 0;             ///< position of the FK within that row
    EntityId parent = kInvalidId;  ///< entity the FK references
  };
  struct Column {
    size_t row = 0;                ///< row the value is read from
    size_t pos = 0;                ///< position of the attribute within that row
    TypeId type = TypeId::kInt64;  ///< type of the NULL a broken chain yields
  };

  EntityId anchor = kInvalidId;
  std::vector<Hop> hops;        ///< each after the hop reaching its `from` row
  std::vector<Column> columns;  ///< in PhysicalSchema::ToTableSchema order
};

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

  /// Computes entity cardinalities and per-attribute statistics.
  LogicalStats ComputeStats() const;

  /// Statistics over only the first visible[e] rows of each entity (data
  /// growth support: later phases see longer prefixes).
  LogicalStats ComputeStatsPrefix(const std::vector<size_t>& visible) const;

  /// Creates and loads every table of `schema` into `db`, ANALYZEing each
  /// table once, right after its load.
  Status Materialize(Database* db, const PhysicalSchema& schema) const;

  /// Creates and loads `schema`, restricted to the first visible[e] rows of
  /// each entity (empty vector = everything); ANALYZEs like Materialize.
  Status MaterializePrefix(Database* db, const PhysicalSchema& schema,
                           const std::vector<size_t>& visible) const;

  /// Loads rows [from[e], to[e]) of each entity into the already-
  /// materialized `schema` tables (incremental growth between phases), and
  /// re-ANALYZEs every table that grew: its statistics cover the whole
  /// table, not only the new rows.
  Status MaterializeRange(Database* db, const PhysicalSchema& schema,
                          const std::vector<size_t>& from,
                          const std::vector<size_t>& to) const;

  /// Resolves, once, how every column of `schema` table `table_idx` is
  /// reached from its anchor entity's rows (exposed for the migration
  /// executor). Fails when a column names no attribute or its entity is not
  /// reachable from the anchor.
  Result<TableRowPlan> PlanTableRows(const PhysicalSchema& schema, size_t table_idx) const;

  /// The physical row `plan` builds from one anchor row. A column whose FK
  /// chain meets a NULL or dangling FK is NULL.
  Row BuildRow(const TableRowPlan& plan, const Row& anchor_row) const;

 private:
  /// Position of `attr` within `entity`'s rows.
  Result<size_t> AttrPosition(EntityId entity, AttrId attr) const;
  /// Inserts into `table` the rows `plan` builds from anchor rows
  /// [begin, end), in batches of 256.
  Status LoadRows(Database* db, const std::string& table, const TableRowPlan& plan,
                  size_t begin, size_t end) const;

  const LogicalSchema* logical_;
  std::vector<std::vector<Row>> rows_;  // by entity
  std::vector<std::unordered_map<int64_t, size_t>> key_index_;
};

}  // namespace pse

// VirtualSchemaCatalog: presents a candidate (not materialized) physical
// schema to the planner/cost model. This is what lets LAA/GAA price the
// exponentially many intermediate schemas "virtually listed" in the paper
// without ever loading data.
#pragma once

#include <map>
#include <string>

#include "core/logical_schema.h"
#include "core/physical_schema.h"
#include "engine/catalog_view.h"

namespace pse {

/// \brief CatalogView over a PhysicalSchema + LogicalStats snapshot.
///
/// Statistics are synthesized: a table anchored at entity E has
/// entity_rows[E] rows; embedded attributes keep their logical NDV/min/max,
/// with null counts scaled to the anchor cardinality. Every table is assumed
/// to carry a B+ tree index on its anchor key (the Database's auto key
/// index), matching what the migration executor actually builds.
///
/// A table's metadata is built the first time a lookup names it (a query
/// reads one to three of a candidate's tables), found case-insensitively as
/// PhysicalSchema::TableByName finds it, and kept for the catalog's
/// lifetime, so returned pointers stay valid. Lookups therefore write: a
/// catalog must not be shared between threads.
class VirtualSchemaCatalog : public CatalogView {
 public:
  VirtualSchemaCatalog(const PhysicalSchema* schema, const LogicalStats* stats);

  Result<const TableSchema*> GetSchema(const std::string& table) const override;
  Result<const TableStatistics*> GetStats(const std::string& table) const override;
  bool HasIndex(const std::string& table, const std::string& column) const override;

  const PhysicalSchema& physical() const { return *schema_; }

 private:
  /// One table's synthesized metadata.
  struct Entry {
    TableSchema schema;
    TableStatistics stats;
  };

  /// The entry of the table at `index` in the physical schema, built on
  /// first use.
  const Entry& EntryAt(size_t index) const;
  /// The entry of the table named `table`; NotFound when there is none.
  Result<const Entry*> Find(const std::string& table) const;

  const PhysicalSchema* schema_;
  const LogicalStats* stats_;
  // Physical table index -> metadata, filled as lookups name tables.
  mutable std::map<size_t, Entry> entries_;
};

}  // namespace pse

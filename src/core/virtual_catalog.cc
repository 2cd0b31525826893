#include "core/virtual_catalog.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "storage/storage_defs.h"

namespace pse {

namespace {
constexpr double kPageFill = 0.85;
}

VirtualSchemaCatalog::VirtualSchemaCatalog(const PhysicalSchema* schema,
                                           const LogicalStats* stats)
    : schema_(schema), stats_(stats) {}

const VirtualSchemaCatalog::Entry& VirtualSchemaCatalog::EntryAt(size_t index) const {
  auto it = entries_.find(index);
  if (it != entries_.end()) return it->second;
  const LogicalSchema& L = *schema_->logical();
  const PhysicalTable& t = schema_->tables()[index];
  Entry e;
  e.schema = schema_->ToTableSchema(index);
  TableStatistics& st = e.stats;
  uint64_t rows = t.anchor < stats_->entity_rows.size() ? stats_->entity_rows[t.anchor] : 0;
  st.row_count = rows;
  double width = static_cast<double>(e.schema.EstimatedTupleWidth());
  st.avg_tuple_width = width;
  st.page_count = static_cast<uint64_t>(
      std::max(1.0, std::ceil(static_cast<double>(rows) * width /
                              (static_cast<double>(kPageSize) * kPageFill))));
  for (AttrId a : t.attrs) {
    const LogicalAttribute& attr = L.attr(a);
    ColumnStatistics cs;
    if (a < stats_->attrs.size()) {
      const LogicalAttrStats& as = stats_->attrs[a];
      cs.num_distinct = std::min<uint64_t>(as.num_distinct, rows);
      cs.null_count = static_cast<uint64_t>(as.null_fraction * static_cast<double>(rows));
      if (as.min.has_value()) cs.min = Value::Int(*as.min);
      if (as.max.has_value()) cs.max = Value::Int(*as.max);
    }
    st.columns[attr.name] = cs;
  }
  return entries_.emplace(index, std::move(e)).first->second;
}

Result<const VirtualSchemaCatalog::Entry*> VirtualSchemaCatalog::Find(
    const std::string& table) const {
  auto index = schema_->TableByName(table);
  if (!index.ok()) return Status::NotFound("virtual schema has no table '" + table + "'");
  return &EntryAt(*index);
}

Result<const TableSchema*> VirtualSchemaCatalog::GetSchema(const std::string& table) const {
  PSE_ASSIGN_OR_RETURN(const Entry* e, Find(table));
  return &e->schema;
}

Result<const TableStatistics*> VirtualSchemaCatalog::GetStats(const std::string& table) const {
  PSE_ASSIGN_OR_RETURN(const Entry* e, Find(table));
  return &e->stats;
}

bool VirtualSchemaCatalog::HasIndex(const std::string& table, const std::string& column) const {
  auto ti = schema_->TableByName(table);
  if (!ti.ok()) return false;
  const std::vector<std::string>& keys = EntryAt(*ti).schema.key_columns();
  if (!keys.empty() && EqualsIgnoreCase(keys[0], column)) return true;
  // Foreign-key columns carry secondary indexes too (the materializer and
  // the migration executor build them — see EnsureSecondaryIndexes).
  auto attr = schema_->logical()->AttrByName(column);
  if (!attr.ok()) return false;
  if (!schema_->tables()[*ti].Contains(*attr)) return false;
  return schema_->logical()->attr(*attr).references.has_value();
}

}  // namespace pse

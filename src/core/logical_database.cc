#include "core/logical_database.h"

#include <algorithm>
#include <unordered_set>

namespace pse {

Status EnsureSecondaryIndexes(Database* db, const PhysicalSchema& schema, size_t table_idx) {
  const LogicalSchema& L = *schema.logical();
  const PhysicalTable& t = schema.tables()[table_idx];
  for (AttrId a : t.attrs) {
    const LogicalAttribute& attr = L.attr(a);
    if (!attr.references.has_value()) continue;
    Status s = db->CreateIndex(t.name, attr.name);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  return Status::OK();
}

LogicalDatabase::LogicalDatabase(const LogicalSchema* logical)
    : logical_(logical),
      rows_(logical->num_entities()),
      key_index_(logical->num_entities()) {}

Status LogicalDatabase::AddRow(EntityId entity, Row row) {
  const LogicalEntity& e = logical_->entity(entity);
  if (row.size() != e.attributes.size()) {
    return Status::InvalidArgument("entity row arity mismatch for '" + e.name + "'");
  }
  // Key = position of the key attribute within the entity's attribute list.
  size_t key_pos = 0;
  for (size_t i = 0; i < e.attributes.size(); ++i) {
    if (e.attributes[i] == e.key) key_pos = i;
  }
  const Value& key = row[key_pos];
  if (key.is_null() || key.type() != TypeId::kInt64) {
    return Status::InvalidArgument("entity key must be a non-null BIGINT");
  }
  auto [it, fresh] = key_index_[entity].try_emplace(key.AsInt(), rows_[entity].size());
  if (!fresh) {
    return Status::AlreadyExists("duplicate key " + key.ToString() + " in entity '" + e.name +
                                 "'");
  }
  rows_[entity].push_back(std::move(row));
  return Status::OK();
}

Status LogicalDatabase::UpdateRow(EntityId entity, int64_t key,
                                  const std::vector<AttrId>& attrs,
                                  const std::vector<Value>& values) {
  if (attrs.size() != values.size()) {
    return Status::InvalidArgument("UpdateRow attr/value arity mismatch");
  }
  const LogicalEntity& e = logical_->entity(entity);
  auto it = key_index_[entity].find(key);
  if (it == key_index_[entity].end()) {
    return Status::NotFound("no row with key " + std::to_string(key) + " in entity '" + e.name +
                            "'");
  }
  Row& row = rows_[entity][it->second];
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == e.key) {
      return Status::InvalidArgument("cannot update the key of entity '" + e.name + "'");
    }
    bool found = false;
    for (size_t pos = 0; pos < e.attributes.size(); ++pos) {
      if (e.attributes[pos] == attrs[i]) {
        row[pos] = values[i];
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("attr '" + logical_->attr(attrs[i]).name +
                                     "' does not belong to entity '" + e.name + "'");
    }
  }
  return Status::OK();
}

Status LogicalDatabase::DeleteRow(EntityId entity, int64_t key) {
  const LogicalEntity& e = logical_->entity(entity);
  auto it = key_index_[entity].find(key);
  if (it == key_index_[entity].end()) {
    return Status::NotFound("no row with key " + std::to_string(key) + " in entity '" + e.name +
                            "'");
  }
  // Swap-pop: move the tail row into the vacated slot and repoint its index
  // entry, so deletion stays O(1) and other rows keep their positions.
  size_t pos = it->second;
  key_index_[entity].erase(it);
  std::vector<Row>& rows = rows_[entity];
  size_t last = rows.size() - 1;
  if (pos != last) {
    rows[pos] = std::move(rows[last]);
    size_t key_pos = 0;
    for (size_t i = 0; i < e.attributes.size(); ++i) {
      if (e.attributes[i] == e.key) key_pos = i;
    }
    key_index_[entity][rows[pos][key_pos].AsInt()] = pos;
  }
  rows.pop_back();
  return Status::OK();
}

const Row* LogicalDatabase::FindByKey(EntityId entity, int64_t key) const {
  auto it = key_index_[entity].find(key);
  if (it == key_index_[entity].end()) return nullptr;
  return &rows_[entity][it->second];
}

Result<size_t> LogicalDatabase::AttrPosition(EntityId entity, AttrId attr) const {
  const LogicalEntity& e = logical_->entity(entity);
  for (size_t i = 0; i < e.attributes.size(); ++i) {
    if (e.attributes[i] == attr) return i;
  }
  return Status::InvalidArgument("attr '" + logical_->attr(attr).name +
                                 "' does not belong to entity '" + e.name + "'");
}

Result<Value> LogicalDatabase::AttrOfRow(EntityId entity, const Row& row, AttrId attr) const {
  PSE_ASSIGN_OR_RETURN(size_t pos, AttrPosition(entity, attr));
  return row[pos];
}

LogicalStats LogicalDatabase::ComputeStats() const {
  std::vector<size_t> all(logical_->num_entities());
  for (EntityId e = 0; e < logical_->num_entities(); ++e) all[e] = rows_[e].size();
  return ComputeStatsPrefix(all);
}

LogicalStats LogicalDatabase::ComputeStatsPrefix(const std::vector<size_t>& visible) const {
  LogicalStats stats;
  stats.Resize(*logical_);
  for (EntityId e = 0; e < logical_->num_entities(); ++e) {
    size_t limit = e < visible.size() ? std::min(visible[e], rows_[e].size())
                                      : rows_[e].size();
    stats.entity_rows[e] = limit;
    const LogicalEntity& entity = logical_->entity(e);
    for (size_t i = 0; i < entity.attributes.size(); ++i) {
      AttrId a = entity.attributes[i];
      LogicalAttrStats& as = stats.attrs[a];
      std::unordered_set<size_t> distinct;
      uint64_t nulls = 0;
      for (size_t r = 0; r < limit; ++r) {
        const Row& row = rows_[e][r];
        const Value& v = row[i];
        if (v.is_null()) {
          ++nulls;
          continue;
        }
        distinct.insert(v.Hash());
        if (v.type() == TypeId::kInt64) {
          int64_t x = v.AsInt();
          if (!as.min.has_value() || x < *as.min) as.min = x;
          if (!as.max.has_value() || x > *as.max) as.max = x;
        }
      }
      as.num_distinct = distinct.size();
      as.null_fraction =
          limit == 0 ? 0.0 : static_cast<double>(nulls) / static_cast<double>(limit);
    }
  }
  return stats;
}

Result<TableRowPlan> LogicalDatabase::PlanTableRows(const PhysicalSchema& schema,
                                                    size_t table_idx) const {
  TableRowPlan plan;
  plan.anchor = schema.tables()[table_idx].anchor;
  const TableSchema ts = schema.ToTableSchema(table_idx);
  plan.columns.reserve(ts.num_columns());
  for (const Column& col : ts.columns()) {
    PSE_ASSIGN_OR_RETURN(AttrId a, logical_->AttrByName(col.name));
    const LogicalAttribute& attr = logical_->attr(a);
    PSE_ASSIGN_OR_RETURN(std::span<const AttrId> path,
                         logical_->FkPath(plan.anchor, attr.entity));
    TableRowPlan::Column out;
    out.type = attr.type;
    EntityId entity = plan.anchor;
    for (AttrId fk : path) {
      PSE_ASSIGN_OR_RETURN(size_t fk_pos, AttrPosition(entity, fk));
      entity = *logical_->attr(fk).references;
      // An earlier column's chain may already take this hop from this row.
      size_t hop = 0;
      while (hop < plan.hops.size() &&
             (plan.hops[hop].from != out.row || plan.hops[hop].fk_pos != fk_pos)) {
        ++hop;
      }
      if (hop == plan.hops.size()) plan.hops.push_back({out.row, fk_pos, entity});
      out.row = hop + 1;
    }
    PSE_ASSIGN_OR_RETURN(out.pos, AttrPosition(entity, a));
    plan.columns.push_back(out);
  }
  return plan;
}

Row LogicalDatabase::BuildRow(const TableRowPlan& plan, const Row& anchor_row) const {
  // reached[0] is the anchor row, reached[h + 1] the row hop h reaches, or
  // nullptr past a NULL or dangling FK. Plans rarely take more than a few
  // hops, so the array lives on the stack.
  constexpr size_t kInlineRows = 16;
  const Row* inline_rows[kInlineRows] = {};
  std::vector<const Row*> spilled;
  const Row** reached = inline_rows;
  if (plan.hops.size() >= kInlineRows) {
    spilled.resize(plan.hops.size() + 1);
    reached = spilled.data();
  }
  reached[0] = &anchor_row;
  for (size_t h = 0; h < plan.hops.size(); ++h) {
    const TableRowPlan::Hop& hop = plan.hops[h];
    const Row* from = reached[hop.from];
    const Value* fk = from != nullptr ? &(*from)[hop.fk_pos] : nullptr;
    reached[h + 1] =
        fk != nullptr && !fk->is_null() ? FindByKey(hop.parent, fk->AsInt()) : nullptr;
  }
  Row out;
  out.reserve(plan.columns.size());
  for (const TableRowPlan::Column& c : plan.columns) {
    const Row* row = reached[c.row];
    out.push_back(row != nullptr ? (*row)[c.pos] : Value::Null(c.type));
  }
  return out;
}

Status LogicalDatabase::LoadRows(Database* db, const std::string& table,
                                 const TableRowPlan& plan, size_t begin, size_t end) const {
  // One table lookup, one latch and one pinned heap tail and index path per
  // batch (Database::InsertBatch).
  constexpr size_t kBatchRows = 256;
  const std::vector<Row>& anchor_rows = rows_[plan.anchor];
  std::vector<Row> batch;
  batch.reserve(std::min(kBatchRows, end - begin));
  for (size_t r = begin; r < end;) {
    batch.clear();
    for (const size_t stop = std::min(end, r + kBatchRows); r < stop; ++r) {
      batch.push_back(BuildRow(plan, anchor_rows[r]));
    }
    PSE_RETURN_NOT_OK(db->InsertBatch(table, batch));
  }
  return Status::OK();
}

Status LogicalDatabase::Materialize(Database* db, const PhysicalSchema& schema) const {
  return MaterializePrefix(db, schema, {});
}

Status LogicalDatabase::MaterializePrefix(Database* db, const PhysicalSchema& schema,
                                          const std::vector<size_t>& visible) const {
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    PSE_ASSIGN_OR_RETURN(TableRowPlan plan, PlanTableRows(schema, i));
    PSE_RETURN_NOT_OK(db->CreateTable(schema.ToTableSchema(i)));
    PSE_RETURN_NOT_OK(EnsureSecondaryIndexes(db, schema, i));
    size_t limit = t.anchor < visible.size() ? std::min(visible[t.anchor], rows_[t.anchor].size())
                                             : rows_[t.anchor].size();
    PSE_RETURN_NOT_OK(LoadRows(db, t.name, plan, 0, limit));
    PSE_RETURN_NOT_OK(db->Analyze(t.name));
  }
  return Status::OK();
}

Status LogicalDatabase::MaterializeRange(Database* db, const PhysicalSchema& schema,
                                         const std::vector<size_t>& from,
                                         const std::vector<size_t>& to) const {
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    size_t start = t.anchor < from.size() ? from[t.anchor] : 0;
    size_t end = t.anchor < to.size() ? std::min(to[t.anchor], rows_[t.anchor].size())
                                      : rows_[t.anchor].size();
    if (start >= end) continue;
    PSE_ASSIGN_OR_RETURN(TableRowPlan plan, PlanTableRows(schema, i));
    PSE_RETURN_NOT_OK(LoadRows(db, t.name, plan, start, end));
    PSE_RETURN_NOT_OK(db->Analyze(t.name));
  }
  return Status::OK();
}

}  // namespace pse

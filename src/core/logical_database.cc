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

Result<Value> LogicalDatabase::AttrOfRow(EntityId entity, const Row& row, AttrId attr) const {
  const LogicalEntity& e = logical_->entity(entity);
  for (size_t i = 0; i < e.attributes.size(); ++i) {
    if (e.attributes[i] == attr) return row[i];
  }
  return Status::InvalidArgument("attr '" + logical_->attr(attr).name +
                                 "' does not belong to entity '" + e.name + "'");
}

Result<Value> LogicalDatabase::ResolveAttr(EntityId anchor, const Row& anchor_row,
                                           AttrId attr) const {
  EntityId target = logical_->attr(attr).entity;
  if (target == anchor) return AttrOfRow(anchor, anchor_row, attr);
  PSE_ASSIGN_OR_RETURN(std::vector<AttrId> path, logical_->FkPath(anchor, target));
  EntityId cur_entity = anchor;
  const Row* cur_row = &anchor_row;
  for (AttrId fk : path) {
    PSE_ASSIGN_OR_RETURN(Value fk_value, AttrOfRow(cur_entity, *cur_row, fk));
    if (fk_value.is_null()) return Value::Null(logical_->attr(attr).type);
    EntityId next = *logical_->attr(fk).references;
    const Row* next_row = FindByKey(next, fk_value.AsInt());
    if (next_row == nullptr) return Value::Null(logical_->attr(attr).type);
    cur_entity = next;
    cur_row = next_row;
  }
  return AttrOfRow(cur_entity, *cur_row, attr);
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

Result<Row> LogicalDatabase::BuildTableRow(const PhysicalSchema& schema, size_t table_idx,
                                           const Row& anchor_row) const {
  const PhysicalTable& t = schema.tables()[table_idx];
  TableSchema ts = schema.ToTableSchema(table_idx);
  Row out;
  out.reserve(ts.num_columns());
  for (const Column& col : ts.columns()) {
    PSE_ASSIGN_OR_RETURN(AttrId a, logical_->AttrByName(col.name));
    PSE_ASSIGN_OR_RETURN(Value v, ResolveAttr(t.anchor, anchor_row, a));
    out.push_back(std::move(v));
  }
  return out;
}

Status LogicalDatabase::Materialize(Database* db, const PhysicalSchema& schema) const {
  return MaterializePrefix(db, schema, {});
}

Status LogicalDatabase::MaterializePrefix(Database* db, const PhysicalSchema& schema,
                                          const std::vector<size_t>& visible) const {
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    TableSchema ts = schema.ToTableSchema(i);
    PSE_RETURN_NOT_OK(db->CreateTable(ts));
    PSE_RETURN_NOT_OK(EnsureSecondaryIndexes(db, schema, i));
    const PhysicalTable& t = schema.tables()[i];
    size_t limit = t.anchor < visible.size() ? std::min(visible[t.anchor], rows_[t.anchor].size())
                                             : rows_[t.anchor].size();
    for (size_t r = 0; r < limit; ++r) {
      PSE_ASSIGN_OR_RETURN(Row row, BuildTableRow(schema, i, rows_[t.anchor][r]));
      PSE_RETURN_NOT_OK(db->Insert(ts.name(), row).status());
    }
    PSE_RETURN_NOT_OK(db->Analyze(ts.name()));
  }
  return Status::OK();
}

Status LogicalDatabase::MaterializeRange(Database* db, const PhysicalSchema& schema,
                                         const std::vector<size_t>& from,
                                         const std::vector<size_t>& to) const {
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    const std::string& name = schema.tables()[i].name;
    size_t start = t.anchor < from.size() ? from[t.anchor] : 0;
    size_t end = t.anchor < to.size() ? std::min(to[t.anchor], rows_[t.anchor].size())
                                      : rows_[t.anchor].size();
    if (start >= end) continue;
    for (size_t r = start; r < end; ++r) {
      PSE_ASSIGN_OR_RETURN(Row row, BuildTableRow(schema, i, rows_[t.anchor][r]));
      PSE_RETURN_NOT_OK(db->Insert(name, row).status());
    }
    PSE_RETURN_NOT_OK(db->Analyze(name));
  }
  return Status::OK();
}

}  // namespace pse

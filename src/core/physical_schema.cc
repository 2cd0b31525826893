#include "core/physical_schema.h"

#include <algorithm>

#include "common/string_util.h"

namespace pse {

bool PhysicalTable::Contains(AttrId a) const {
  return std::binary_search(attrs.begin(), attrs.end(), a);
}

std::vector<AttrId> PhysicalSchema::CompleteAttrSet(const LogicalSchema& logical,
                                                    EntityId anchor,
                                                    const std::vector<AttrId>& nonkey_attrs) {
  std::vector<AttrId> out = nonkey_attrs;
  out.push_back(logical.entity(anchor).key);
  // Key of every entity with a non-key attribute present.
  for (AttrId a : nonkey_attrs) {
    out.push_back(logical.entity(logical.attr(a).entity).key);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status PhysicalSchema::AddTable(const std::string& name, EntityId anchor,
                                const std::vector<AttrId>& nonkey_attrs) {
  for (AttrId a : nonkey_attrs) {
    if (logical_->attr(a).is_key) {
      return Status::InvalidArgument("attr '" + logical_->attr(a).name +
                                     "' is a key; pass only non-key attributes");
    }
  }
  PhysicalTable t;
  t.name = name;
  t.anchor = anchor;
  t.attrs = CompleteAttrSet(*logical_, anchor, nonkey_attrs);
  tables_.push_back(std::move(t));
  return Status::OK();
}

void PhysicalSchema::AddRawTable(PhysicalTable t) {
  std::sort(t.attrs.begin(), t.attrs.end());
  t.attrs.erase(std::unique(t.attrs.begin(), t.attrs.end()), t.attrs.end());
  tables_.push_back(std::move(t));
}

Status PhysicalSchema::Validate() const {
  const LogicalSchema& L = *logical_;
  // Flat scratch, tables numbered from 1 so that 0 means none: per
  // attribute, the last table storing it and how many tables store it as a
  // non-key attribute; per entity, the last table storing one of its
  // non-key attributes.
  std::vector<size_t> stored_in(L.num_attributes(), 0);
  std::vector<size_t> nonkey_count(L.num_attributes(), 0);
  std::vector<size_t> embedded_in(L.num_entities(), 0);
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    const PhysicalTable& t = tables_[ti];
    const size_t mark = ti + 1;
    for (size_t earlier = 0; earlier < ti; ++earlier) {
      if (EqualsIgnoreCase(tables_[earlier].name, t.name)) {
        return Status::Internal("duplicate table name '" + t.name + "'");
      }
    }
    for (AttrId a : t.attrs) stored_in[a] = mark;
    // 1. anchor key present.
    if (stored_in[L.entity(t.anchor).key] != mark) {
      return Status::Internal("table '" + t.name + "' is missing its anchor key");
    }
    for (AttrId a : t.attrs) {
      const LogicalAttribute& attr = L.attr(a);
      if (!attr.is_key) {
        ++nonkey_count[a];
        embedded_in[attr.entity] = mark;
      }
      // 4. chain FKs present for every foreign entity attribute.
      if (attr.entity != t.anchor) {
        auto path = L.FkPath(t.anchor, attr.entity);
        if (!path.ok()) {
          return Status::Internal("table '" + t.name + "': attr '" + attr.name +
                                  "' of entity unreachable from anchor");
        }
        for (AttrId fk : *path) {
          if (stored_in[fk] != mark) {
            return Status::Internal("table '" + t.name + "': missing chain FK '" +
                                    L.attr(fk).name + "' for attr '" + attr.name + "'");
          }
        }
      }
    }
    // 3. key attrs justified.
    for (AttrId a : t.attrs) {
      const LogicalAttribute& attr = L.attr(a);
      if (!attr.is_key) continue;
      if (attr.entity == t.anchor) continue;
      if (embedded_in[attr.entity] != mark) {
        return Status::Internal("table '" + t.name + "': unjustified key attr '" + attr.name +
                                "'");
      }
    }
    // 3b. keys present for all embedded entities, in entity order.
    for (EntityId e = 0; e < L.num_entities(); ++e) {
      if (embedded_in[e] == mark && stored_in[L.entity(e).key] != mark) {
        return Status::Internal("table '" + t.name + "': missing key of embedded entity '" +
                                L.entity(e).name + "'");
      }
    }
  }
  // 2. non-key attrs appear at most once (not every attr must be placed —
  // "new" attributes are absent until their CreateTable runs).
  for (AttrId a = 0; a < nonkey_count.size(); ++a) {
    if (nonkey_count[a] > 1) {
      return Status::Internal("non-key attr '" + L.attr(a).name + "' stored in " +
                              std::to_string(nonkey_count[a]) + " tables");
    }
  }
  return Status::OK();
}

Result<size_t> PhysicalSchema::TableOfNonKeyAttr(AttrId a) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].Contains(a)) return i;
  }
  return Status::NotFound("attr '" + logical_->attr(a).name + "' not stored in any table");
}

std::vector<size_t> PhysicalSchema::TablesWithAttr(AttrId a) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].Contains(a)) out.push_back(i);
  }
  return out;
}

Result<size_t> PhysicalSchema::TableByName(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (EqualsIgnoreCase(tables_[i].name, name)) return i;
  }
  return Status::NotFound("table '" + name + "' not in physical schema");
}

TableSchema PhysicalSchema::ToTableSchema(size_t idx) const {
  const PhysicalTable& t = tables_[idx];
  const LogicalSchema& L = *logical_;
  std::vector<Column> columns;
  // Anchor key first (matches Database auto-index expectations), then the
  // rest in AttrId order.
  AttrId key = L.entity(t.anchor).key;
  const LogicalAttribute& key_attr = L.attr(key);
  columns.emplace_back(key_attr.name, key_attr.type, key_attr.avg_width, /*nullable=*/false);
  for (AttrId a : t.attrs) {
    if (a == key) continue;
    const LogicalAttribute& attr = L.attr(a);
    columns.emplace_back(attr.name, attr.type, attr.avg_width);
  }
  return TableSchema(t.name, std::move(columns), {key_attr.name});
}

std::string PhysicalSchema::ToString() const {
  std::string out;
  for (size_t i = 0; i < tables_.size(); ++i) {
    const PhysicalTable& t = tables_[i];
    out += t.name + " [anchor=" + logical_->entity(t.anchor).name + "] (";
    bool first = true;
    for (AttrId a : t.attrs) {
      if (!first) out += ", ";
      out += logical_->attr(a).name;
      first = false;
    }
    out += ")\n";
  }
  return out;
}

bool PhysicalSchema::EquivalentTo(const PhysicalSchema& other) const {
  if (tables_.size() != other.tables_.size()) return false;
  std::vector<std::pair<EntityId, std::vector<AttrId>>> a, b;
  for (const auto& t : tables_) a.emplace_back(t.anchor, t.attrs);
  for (const auto& t : other.tables_) b.emplace_back(t.anchor, t.attrs);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace pse

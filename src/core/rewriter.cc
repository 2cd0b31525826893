#include "core/rewriter.h"

#include <algorithm>
#include <map>
#include <set>

namespace pse {

namespace {

enum class TableClass { kDirect, kChildDenorm, kParent };

struct TableUse {
  TableClass cls = TableClass::kDirect;
  std::set<AttrId> cols;   // attributes to produce
  AttrId link_attr = kInvalidId;  // column carrying the join value
};

class Rewriter {
 public:
  Rewriter(const LogicalQuery& q, const PhysicalSchema& p)
      : q_(q), P_(p), L_(*p.logical()) {}

  Result<BoundQuery> Run();

 private:
  /// Ensures `attr` is available; returns the table it is read from.
  Result<size_t> ResolveAttr(AttrId attr);
  /// Classifies and links a newly used table.
  Status LinkTable(size_t t);

  const LogicalQuery& q_;
  const PhysicalSchema& P_;
  const LogicalSchema& L_;

  std::map<size_t, TableUse> used_;
  std::map<AttrId, size_t> attr_loc_;
  /// (fk attribute, parent table) joins discovered while linking.
  std::vector<std::pair<AttrId, size_t>> parent_joins_;
};

Result<size_t> Rewriter::ResolveAttr(AttrId attr) {
  auto it = attr_loc_.find(attr);
  if (it != attr_loc_.end()) return it->second;

  std::vector<size_t> candidates = P_.TablesWithAttr(attr);
  if (candidates.empty()) {
    return Status::BindError("attribute '" + L_.attr(attr).name +
                             "' is not stored in this schema");
  }
  size_t chosen = candidates[0];
  bool found = false;
  // Prefer a table already in use.
  for (size_t c : candidates) {
    if (used_.count(c)) {
      chosen = c;
      found = true;
      break;
    }
  }
  // Then a table anchored at the query anchor, then at the attr's entity.
  if (!found) {
    for (size_t c : candidates) {
      if (P_.tables()[c].anchor == q_.anchor) {
        chosen = c;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    for (size_t c : candidates) {
      if (P_.tables()[c].anchor == L_.attr(attr).entity) {
        chosen = c;
        found = true;
        break;
      }
    }
  }
  attr_loc_[attr] = chosen;
  bool fresh = used_.count(chosen) == 0;
  used_[chosen].cols.insert(attr);
  if (fresh) {
    PSE_RETURN_NOT_OK(LinkTable(chosen));
  }
  return chosen;
}

Status Rewriter::LinkTable(size_t t) {
  const PhysicalTable& table = P_.tables()[t];
  TableUse& use = used_[t];
  AttrId anchor_key = L_.entity(q_.anchor).key;

  if (table.anchor == q_.anchor) {
    use.cls = TableClass::kDirect;
    use.link_attr = anchor_key;
    use.cols.insert(anchor_key);
    return Status::OK();
  }
  if (L_.Reaches(table.anchor, q_.anchor)) {
    // The query's entity is denormalized inside this deeper-anchored table.
    use.cls = TableClass::kChildDenorm;
    if (table.Contains(anchor_key)) {
      use.link_attr = anchor_key;
    } else {
      PSE_ASSIGN_OR_RETURN(std::span<const AttrId> path,
                           L_.FkPath(table.anchor, q_.anchor));
      AttrId last_fk = path.back();
      if (!table.Contains(last_fk)) {
        return Status::Internal("denormalized table '" + table.name +
                                "' lacks the chain FK to the query anchor");
      }
      use.link_attr = last_fk;
    }
    use.cols.insert(use.link_attr);
    return Status::OK();
  }
  if (L_.Reaches(q_.anchor, table.anchor)) {
    use.cls = TableClass::kParent;
    AttrId parent_key = L_.entity(table.anchor).key;
    use.link_attr = parent_key;
    use.cols.insert(parent_key);
    // The FK carrying parent-key values per anchor row lives elsewhere;
    // resolve it recursively and record the join.
    PSE_ASSIGN_OR_RETURN(std::span<const AttrId> path,
                         L_.FkPath(q_.anchor, table.anchor));
    AttrId last_fk = path.back();
    PSE_ASSIGN_OR_RETURN(size_t fk_table, ResolveAttr(last_fk));
    if (fk_table != t) {
      parent_joins_.emplace_back(last_fk, t);
    }
    return Status::OK();
  }
  return Status::BindError("table '" + table.name + "' anchored at '" +
                           L_.entity(table.anchor).name +
                           "' is unrelated to query anchor '" + L_.entity(q_.anchor).name + "'");
}

Result<BoundQuery> Rewriter::Run() {
  // 1. Collect needed attributes.
  std::vector<std::string> names;
  for (const auto& s : q_.select) {
    if (s.expr) s.expr->CollectColumns(&names);
  }
  for (const auto& f : q_.filters) f->CollectColumns(&names);
  for (const auto& g : q_.group_by) g->CollectColumns(&names);

  std::vector<AttrId> needed;
  for (const auto& n : names) {
    PSE_ASSIGN_OR_RETURN(AttrId a, L_.AttrByName(n));
    needed.push_back(a);
  }
  needed.push_back(L_.entity(q_.anchor).key);

  for (AttrId a : needed) {
    PSE_RETURN_NOT_OK(ResolveAttr(a).status());
  }

  // 2. Identify the anchor group and the join primary (a direct table when
  // one exists). The primary is emitted FIRST so the planner's left-deep
  // join tree grows outward from the (usually filtered) anchor access.
  std::vector<size_t> anchor_group;
  for (const auto& [t, use] : used_) {
    if (use.cls != TableClass::kParent) anchor_group.push_back(t);
  }
  if (anchor_group.empty()) {
    return Status::Internal("rewriter produced no anchor-side table");
  }
  size_t primary = anchor_group[0];
  for (size_t t : anchor_group) {
    if (used_[t].cls == TableClass::kDirect) {
      primary = t;
      break;
    }
  }

  // Seed the planner's join tree from a table that actually has a selective
  // local filter (the paper's queries filter on one side; starting there
  // lets every other table attach as an index-nested-loop inner). Key-only
  // filters land on the primary, so the primary wins ties.
  std::set<size_t> filtered_tables;
  for (const auto& f : q_.filters) {
    std::vector<std::string> cols;
    f->CollectColumns(&cols);
    std::set<size_t> refs;
    bool all_key = !cols.empty();
    for (const auto& c : cols) {
      auto attr = L_.AttrByName(c);
      if (!attr.ok()) continue;
      if (*attr != L_.entity(q_.anchor).key) all_key = false;
      auto loc = attr_loc_.find(*attr);
      if (loc != attr_loc_.end()) refs.insert(loc->second);
    }
    if (all_key) {
      filtered_tables.insert(primary);
    } else if (refs.size() == 1) {
      filtered_tables.insert(*refs.begin());
    }
  }
  size_t seed = primary;
  if (!filtered_tables.empty() && filtered_tables.count(primary) == 0) {
    seed = *filtered_tables.begin();
  }

  BoundQuery out;
  std::map<size_t, size_t> table_pos;  // schema table idx -> BoundQuery idx
  std::vector<size_t> emit_order{seed};
  for (const auto& [t, use] : used_) {
    if (t != seed) emit_order.push_back(t);
  }
  for (size_t t : emit_order) {
    const TableUse& use = used_[t];
    table_pos[t] = out.tables.size();
    TableAccess access;
    access.table = P_.tables()[t].name;
    access.alias = access.table;
    for (AttrId a : use.cols) access.columns.push_back(L_.attr(a).name);
    if (use.cls == TableClass::kChildDenorm) {
      access.distinct = true;
      access.distinct_key = L_.attr(use.link_attr).name;
    }
    out.tables.push_back(std::move(access));
  }

  // 3. Joins. Anchor group: direct + child tables joined on their link cols.
  for (size_t t : anchor_group) {
    if (t == primary) continue;
    EquiJoin j;
    j.left_table = table_pos[primary];
    j.right_table = table_pos[t];
    j.left_column = L_.attr(used_[primary].link_attr).name;
    j.right_column = L_.attr(used_[t].link_attr).name;
    out.joins.push_back(j);
  }
  // Parent joins: fk-side table joins the parent fragment.
  std::set<std::pair<size_t, size_t>> seen_joins;
  for (const auto& [fk, t] : parent_joins_) {
    size_t fk_table = attr_loc_.at(fk);
    if (!seen_joins.insert({fk_table, t}).second) continue;
    EquiJoin j;
    j.left_table = table_pos[fk_table];
    j.right_table = table_pos[t];
    j.left_column = L_.attr(fk).name;
    j.right_column = L_.attr(used_[t].link_attr).name;
    out.joins.push_back(j);
  }

  // 4. Expression placement. Qualify refs as "table.attr" per attr_loc.
  auto qualify = [this](Expr* e) {
    e->VisitColumnRefs([this](ColumnRefExpr* c) {
      auto attr = L_.AttrByName(c->name());
      if (!attr.ok()) return;  // already qualified or unknown (caught later)
      auto loc = attr_loc_.find(*attr);
      if (loc != attr_loc_.end()) {
        c->set_name(P_.tables()[loc->second].name + "." + L_.attr(*attr).name);
      }
    });
  };
  auto tables_of = [this](const Expr& e) {
    std::vector<std::string> cols;
    e.CollectColumns(&cols);
    std::set<size_t> out_tables;
    for (const auto& c : cols) {
      auto attr = L_.AttrByName(c);
      if (attr.ok()) out_tables.insert(attr_loc_.at(*attr));
    }
    return out_tables;
  };
  AttrId anchor_key = L_.entity(q_.anchor).key;
  for (const auto& f : q_.filters) {
    std::set<size_t> refs = tables_of(*f);
    // Filters that touch only the anchor key hold on EVERY anchor-side
    // fragment (they all carry the key / its FK image); replicating them
    // turns fragment joins into per-fragment index lookups.
    std::vector<std::string> cols;
    f->CollectColumns(&cols);
    bool key_only = !cols.empty();
    for (const auto& c : cols) {
      auto attr = L_.AttrByName(c);
      if (!attr.ok() || *attr != anchor_key) key_only = false;
    }
    if (key_only) {
      for (size_t t : anchor_group) {
        ExprPtr e = f->Clone();
        // The fragment's key column may be the anchor key itself or the FK
        // image of it (child-denormalized tables).
        const std::string link_name = L_.attr(used_[t].link_attr).name;
        e->VisitColumnRefs([&link_name](ColumnRefExpr* c) { c->set_name(link_name); });
        out.tables[table_pos[t]].filters.push_back(std::move(e));
      }
      continue;
    }
    ExprPtr e = f->Clone();
    if (refs.size() == 1) {
      out.tables[table_pos[*refs.begin()]].filters.push_back(std::move(e));  // unqualified
    } else {
      qualify(e.get());
      out.global_filters.push_back(std::move(e));
    }
  }
  for (const auto& g : q_.group_by) {
    ExprPtr e = g->Clone();
    qualify(e.get());
    out.group_by.push_back(std::move(e));
  }
  for (const auto& s : q_.select) {
    SelectItem item;
    item.agg = s.agg;
    item.name = s.name;
    if (s.expr) {
      item.expr = s.expr->Clone();
      qualify(item.expr.get());
    }
    out.select_items.push_back(std::move(item));
  }
  out.order_by = q_.order_by;
  out.limit = q_.limit;
  out.select_distinct = q_.distinct;
  return out;
}

}  // namespace

Result<BoundQuery> RewriteQuery(const LogicalQuery& query, const PhysicalSchema& schema) {
  Rewriter rewriter(query, schema);
  return rewriter.Run();
}

}  // namespace pse

#include "core/logical_query.h"

#include <set>

#include "core/virtual_catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace pse {

LogicalQuery LogicalQuery::Clone() const {
  LogicalQuery out;
  out.name = name;
  out.anchor = anchor;
  for (const auto& s : select) out.select.push_back(s.Clone());
  for (const auto& f : filters) out.filters.push_back(f->Clone());
  for (const auto& g : group_by) out.group_by.push_back(g->Clone());
  out.order_by = order_by;
  out.limit = limit;
  out.distinct = distinct;
  return out;
}

std::string LogicalQuery::ToString(const LogicalSchema& logical) const {
  std::string out = name.empty() ? "query" : name;
  out += " [anchor=" + logical.entity(anchor).name + "] SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) out += ", ";
    if (select[i].agg == AggFunc::kCountStar) {
      out += "COUNT(*)";
    } else if (select[i].agg != AggFunc::kNone) {
      out += std::string(AggFuncToString(select[i].agg)) + "(" + select[i].expr->ToString() + ")";
    } else {
      out += select[i].expr->ToString();
    }
  }
  for (size_t i = 0; i < filters.size(); ++i) {
    out += i == 0 ? " WHERE " : " AND ";
    out += filters[i]->ToString();
  }
  for (size_t i = 0; i < group_by.size(); ++i) {
    out += i == 0 ? " GROUP BY " : ", ";
    out += group_by[i]->ToString();
  }
  for (size_t i = 0; i < order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY #" : ", #";
    out += std::to_string(order_by[i].select_index);
    if (order_by[i].desc) out += " DESC";
  }
  if (limit.has_value()) {
    out += " LIMIT ";
    out += std::to_string(*limit);
  }
  return out;
}

namespace {
/// Strips "alias." qualifiers, leaving bare (globally unique) attr names.
void StripQualifiers(Expr* e) {
  e->VisitColumnRefs([](ColumnRefExpr* c) {
    size_t dot = c->name().find('.');
    if (dot != std::string::npos) c->set_name(c->name().substr(dot + 1));
  });
}
}  // namespace

Result<LogicalQuery> LiftSqlToLogical(const std::string& sql, const PhysicalSchema& reference,
                                      const std::string& query_name) {
  const LogicalSchema& L = *reference.logical();
  // Bind against the reference schema (stats irrelevant for binding).
  LogicalStats dummy_stats;
  dummy_stats.Resize(L);
  VirtualSchemaCatalog catalog(&reference, &dummy_stats);

  PSE_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("only SELECT statements lift to logical queries");
  }
  PSE_ASSIGN_OR_RETURN(BoundQuery bound, BindSelect(*stmt.select, catalog));

  LogicalQuery out;
  out.name = query_name;

  // Verify join structure and collect referenced entities.
  std::set<EntityId> entities;
  auto note_attr = [&](const std::string& name) -> Status {
    size_t dot = name.find('.');
    std::string bare = dot == std::string::npos ? name : name.substr(dot + 1);
    PSE_ASSIGN_OR_RETURN(AttrId a, L.AttrByName(bare));
    entities.insert(L.attr(a).entity);
    return Status::OK();
  };

  for (const auto& j : bound.joins) {
    PSE_ASSIGN_OR_RETURN(AttrId la, L.AttrByName(j.left_column));
    PSE_ASSIGN_OR_RETURN(AttrId ra, L.AttrByName(j.right_column));
    const LogicalAttribute& lattr = L.attr(la);
    const LogicalAttribute& rattr = L.attr(ra);
    bool ok = false;
    // fk = key(target)
    if (lattr.references.has_value() && rattr.is_key && rattr.entity == *lattr.references) {
      ok = true;
    }
    if (rattr.references.has_value() && lattr.is_key && lattr.entity == *rattr.references) {
      ok = true;
    }
    // key = key of the same entity (two fragments).
    if (lattr.is_key && rattr.is_key && lattr.entity == rattr.entity) ok = true;
    if (!ok) {
      return Status::InvalidArgument("join '" + j.left_column + " = " + j.right_column +
                                     "' does not follow a relationship; cannot lift");
    }
    entities.insert(lattr.entity);
    entities.insert(rattr.entity);
  }

  // Collect every referenced column (select, filters, group by) and convert.
  auto convert_expr = [&](const ExprPtr& src) -> Result<ExprPtr> {
    ExprPtr e = src->Clone();
    StripQualifiers(e.get());
    std::vector<std::string> cols;
    e->CollectColumns(&cols);
    for (const auto& c : cols) {
      PSE_RETURN_NOT_OK(note_attr(c));
    }
    return e;
  };

  for (const auto& s : bound.select_items) {
    LogicalSelectItem item;
    item.agg = s.agg;
    item.name = s.name;
    if (s.expr) {
      PSE_ASSIGN_OR_RETURN(item.expr, convert_expr(s.expr));
    }
    out.select.push_back(std::move(item));
  }
  for (const auto& t : bound.tables) {
    for (const auto& f : t.filters) {
      PSE_ASSIGN_OR_RETURN(ExprPtr e, convert_expr(f));
      out.filters.push_back(std::move(e));
    }
    // FROM-ed tables pull their anchor entity in even when no column of
    // theirs survives binding (e.g. bare joins for cardinality).
    auto ti = reference.TableByName(t.table);
    if (ti.ok()) entities.insert(reference.tables()[*ti].anchor);
  }
  for (const auto& f : bound.global_filters) {
    PSE_ASSIGN_OR_RETURN(ExprPtr e, convert_expr(f));
    out.filters.push_back(std::move(e));
  }
  for (const auto& g : bound.group_by) {
    PSE_ASSIGN_OR_RETURN(ExprPtr e, convert_expr(g));
    out.group_by.push_back(std::move(e));
  }
  out.order_by = bound.order_by;
  out.limit = bound.limit;
  out.distinct = bound.select_distinct;

  // Infer the anchor: the unique entity reaching all referenced entities.
  std::vector<EntityId> ents(entities.begin(), entities.end());
  auto anchor = L.CommonAnchor(ents);
  if (!anchor.ok()) {
    return Status::InvalidArgument("query references entities with no common anchor; not a "
                                   "many-to-one join tree");
  }
  out.anchor = *anchor;
  return out;
}

}  // namespace pse

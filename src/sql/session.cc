#include "sql/session.h"

#include "common/lock_registry.h"

#include <mutex>
#include <shared_mutex>

#include "engine/executor.h"
#include "engine/planner.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace pse {

Result<ExecResult> Session::Execute(const std::string& sql) {
  PSE_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  // DML holds the catalog latch shared for the whole statement — bind, plan,
  // and execute all see one consistent schema even while a migration runs
  // concurrently. DDL (and the migration executor's publish windows) holds
  // it exclusive. Row-level conflicts are the table latches' job
  // (DESIGN.md §15).
  PSE_LOCKDEP_SCOPE("Session::Execute");
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
      PSE_ASSIGN_OR_RETURN(BoundQuery q, BindSelect(*stmt.select, view_));
      return ExecuteSelect(q);
    }
    case Statement::Kind::kInsert: {
      std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
      return ExecuteInsert(*stmt.insert);
    }
    case Statement::Kind::kUpdate: {
      std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
      return ExecuteUpdate(*stmt.update);
    }
    case Statement::Kind::kDelete: {
      std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
      return ExecuteDelete(*stmt.del);
    }
    case Statement::Kind::kCreateTable: {
      std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
      PSE_RETURN_NOT_OK(db_->CreateTable(stmt.create_table->schema));
      return ExecResult{};
    }
    case Statement::Kind::kCreateIndex: {
      std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
      PSE_RETURN_NOT_OK(db_->CreateIndex(stmt.create_index->table, stmt.create_index->column));
      return ExecResult{};
    }
    case Statement::Kind::kDropTable: {
      std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
      PSE_RETURN_NOT_OK(db_->DropTable(stmt.drop_table->table));
      return ExecResult{};
    }
    case Statement::Kind::kAnalyze: {
      std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
      if (stmt.analyze->table.empty()) {
        PSE_RETURN_NOT_OK(db_->AnalyzeAll());
      } else {
        PSE_RETURN_NOT_OK(db_->Analyze(stmt.analyze->table));
      }
      return ExecResult{};
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<BoundQuery> Session::Bind(const std::string& sql) {
  PSE_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("Bind expects a SELECT statement");
  }
  std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
  return BindSelect(*stmt.select, view_);
}

Result<std::string> Session::Explain(const std::string& sql) {
  std::shared_lock<SharedMutex> schema_lock(db_->schema_latch());
  PSE_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("Explain expects a SELECT statement");
  }
  PSE_ASSIGN_OR_RETURN(BoundQuery q, BindSelect(*stmt.select, view_));
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(q, view_));
  return plan->ToString();
}

Result<ExecResult> Session::ExecuteSelect(const BoundQuery& q) {
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(q, view_));
  PSE_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecutePlan(*plan, db_));
  ExecResult out;
  out.columns = plan->output_columns;
  out.rows = std::move(rows);
  out.affected = out.rows.size();
  return out;
}

Result<ExecResult> Session::ExecuteInsert(const InsertStmt& stmt) {
  if (dml_hook_ != nullptr) {
    ExecResult out;
    PSE_ASSIGN_OR_RETURN(bool handled, dml_hook_->OnInsert(stmt, &out.affected));
    if (handled) return out;
  }
  PSE_ASSIGN_OR_RETURN(TableInfo * t, db_->GetTable(stmt.table));
  const TableSchema& schema = *t->schema;
  // Map provided columns to schema positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const auto& c : stmt.columns) {
      PSE_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(c));
      positions.push_back(idx);
    }
  }
  ExecResult out;
  for (const auto& literals : stmt.rows) {
    if (literals.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch: got " +
                                     std::to_string(literals.size()) + ", want " +
                                     std::to_string(positions.size()));
    }
    Row row(schema.num_columns());
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      row[i] = Value::Null(schema.column(i).type);
    }
    for (size_t i = 0; i < positions.size(); ++i) {
      PSE_ASSIGN_OR_RETURN(row[positions[i]],
                           literals[i].CastTo(schema.column(positions[i]).type));
    }
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (!schema.column(i).nullable && row[i].is_null()) {
        return Status::ConstraintViolation("column '" + schema.column(i).name +
                                           "' is NOT NULL");
      }
    }
    PSE_RETURN_NOT_OK(db_->Insert(stmt.table, row).status());
    ++out.affected;
  }
  return out;
}

namespace {
/// Collects (rid, row) pairs of a table matching `where` (may be null).
Status CollectMatches(TableInfo* t, const Expr* where,
                      std::vector<std::pair<Rid, Row>>* out) {
  ExprPtr resolved;
  if (where != nullptr) {
    resolved = where->Clone();
    const TableSchema* schema = t->schema.get();
    PSE_RETURN_NOT_OK(resolved->Resolve([schema](const std::string& n) -> Result<size_t> {
      // Accept both "col" and "table.col".
      size_t dot = n.find('.');
      return schema->ColumnIndex(dot == std::string::npos ? n : n.substr(dot + 1));
    }));
  }
  PSE_LOCKDEP_SCOPE("Session::CollectMatches");
  // Shared content latch for the scan only — released before the caller
  // re-enters Database::Update/Delete, which take it exclusive.
  std::shared_lock<SharedMutex> table_lock(t->latch);
  PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, t->heap->Begin());
  while (!it.AtEnd()) {
    bool pass = true;
    if (resolved) {
      PSE_ASSIGN_OR_RETURN(pass, EvalPredicate(*resolved, it.row()));
    }
    if (pass) out->emplace_back(it.rid(), it.row());
    PSE_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}
}  // namespace

Result<ExecResult> Session::ExecuteUpdate(const UpdateStmt& stmt) {
  if (dml_hook_ != nullptr) {
    ExecResult out;
    PSE_ASSIGN_OR_RETURN(bool handled, dml_hook_->OnUpdate(stmt, &out.affected));
    if (handled) return out;
  }
  PSE_ASSIGN_OR_RETURN(TableInfo * t, db_->GetTable(stmt.table));
  const TableSchema& schema = *t->schema;
  // Resolve assignment expressions against the table row.
  std::vector<std::pair<size_t, ExprPtr>> assigns;
  for (const auto& [col, expr] : stmt.assignments) {
    PSE_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
    ExprPtr e = expr->Clone();
    const TableSchema* sp = &schema;
    PSE_RETURN_NOT_OK(e->Resolve([sp](const std::string& n) -> Result<size_t> {
      size_t dot = n.find('.');
      return sp->ColumnIndex(dot == std::string::npos ? n : n.substr(dot + 1));
    }));
    assigns.emplace_back(idx, std::move(e));
  }
  std::vector<std::pair<Rid, Row>> matches;
  PSE_RETURN_NOT_OK(CollectMatches(t, stmt.where.get(), &matches));
  ExecResult out;
  for (auto& [rid, row] : matches) {
    Row updated = row;
    for (const auto& [idx, e] : assigns) {
      PSE_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      PSE_ASSIGN_OR_RETURN(updated[idx], v.CastTo(schema.column(idx).type));
    }
    PSE_RETURN_NOT_OK(db_->Update(stmt.table, rid, updated).status());
    ++out.affected;
  }
  return out;
}

Result<ExecResult> Session::ExecuteDelete(const DeleteStmt& stmt) {
  if (dml_hook_ != nullptr) {
    ExecResult out;
    PSE_ASSIGN_OR_RETURN(bool handled, dml_hook_->OnDelete(stmt, &out.affected));
    if (handled) return out;
  }
  PSE_ASSIGN_OR_RETURN(TableInfo * t, db_->GetTable(stmt.table));
  std::vector<std::pair<Rid, Row>> matches;
  PSE_RETURN_NOT_OK(CollectMatches(t, stmt.where.get(), &matches));
  ExecResult out;
  for (auto& [rid, row] : matches) {
    PSE_RETURN_NOT_OK(db_->Delete(stmt.table, rid));
    ++out.affected;
  }
  return out;
}

}  // namespace pse

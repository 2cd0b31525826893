#include "engine/executor.h"

#include "common/lock_registry.h"

#include <algorithm>
#include <shared_mutex>

#include "common/string_util.h"
#include "engine/vec_executor.h"

namespace pse {

namespace {
/// Collects every base table the plan touches (scans and index-join inners).
void CollectPlanTables(const PlanNode& plan, std::vector<std::string>* out) {
  if (!plan.table.empty()) out->push_back(ToLower(plan.table));
  for (const auto& child : plan.children) CollectPlanTables(*child, out);
}
}  // namespace

Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db) {
  PSE_LOCKDEP_SCOPE("ExecutePlan");
  // Shared content latch on every table the plan reads, held for the whole
  // execution. Sorted + deduped so concurrent executions acquire in one
  // global order (and a self-join never double-locks). Writers
  // (Database::Insert/Delete/Update, the migration copy loop) take these
  // exclusively, so a scan sees each table either before or after any
  // concurrent write or batch — never a torn page, and never a row twice
  // because an UPDATE relocated it between two batches of the same scan.
  // The operators themselves take no latches.
  std::vector<std::string> tables;
  CollectPlanTables(plan, &tables);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::vector<std::shared_lock<SharedMutex>> table_locks;
  table_locks.reserve(tables.size());
  for (const auto& name : tables) {
    PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(name));
    table_locks.emplace_back(t->latch);
  }
  PSE_ASSIGN_OR_RETURN(auto exec, BuildVecExecutor(plan, db));
  PSE_RETURN_NOT_OK(exec->Init());
  std::vector<Row> rows;
  TupleBatch batch;
  while (true) {
    PSE_ASSIGN_OR_RETURN(bool has, exec->Next(&batch));
    if (!has) break;
    // The next Next() rebuilds the batch, so its values move out.
    const size_t n = batch.size();
    for (size_t i = 0; i < n; ++i) {
      rows.emplace_back();
      batch.MoveRowOut(batch.SelIndex(i), &rows.back());
    }
  }
  return rows;
}

}  // namespace pse

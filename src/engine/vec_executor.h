// Batch-at-a-time executors: every planned query runs here, over
// TupleBatch instead of one Row per virtual call. Operators do per-row work
// only for rows that survive and allocate nothing per row:
//   - scans copy TupleBatch::kDefaultRows tuples' bytes per batch off heap
//     pages (one pin per page, in the same page order whatever the filter),
//     decode the pushed-down filter's columns, run the filter, and decode
//     the other projected columns for the survivors only;
//   - hash join, aggregation and DISTINCT key rows through one
//     open-addressing table of row ids; the hash join and sort keep their
//     input batches by move instead of copying rows out of them;
//   - filters narrow selection vectors without copying values, and
//     expressions run through compiled ExprVecExecutors.
// Output order is defined: scans in heap (or index) order, hash joins
// probe-major with each probe row's build matches in build order, groups and
// DISTINCT rows in first-seen order, sorts stable.
//
// Latching: the operators take no latches. ExecutePlan (engine/executor.h),
// the one way to run a plan, holds the shared content latch of every table
// the plan reads — sorted, deduplicated, for the whole execution — so every
// batch of one execution sees the same state of each table. Re-taking one of
// those latches inside an operator would be a recursive shared acquisition,
// which can deadlock behind a waiting writer on the writer-preferring
// SharedMutex (common/rw_latch.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/expr_vec.h"
#include "engine/plan.h"
#include "engine/tuple_batch.h"
#include "storage/database.h"

namespace pse {

/// Per-executor output accounting, summed over the executor's lifetime.
struct VecExecutorStats {
  uint64_t batches = 0;      ///< batches produced (excluding end-of-stream)
  uint64_t output_rows = 0;  ///< live rows across those batches
};

/// \brief Pull-based batch operator.
///
/// Subclasses implement InternalNext(); the public Next() wraps it with
/// output-size stats. A produced batch may carry a selection vector;
/// consumers must index live rows through SelIndex().
class VecExecutor {
 public:
  virtual ~VecExecutor() = default;

  /// Prepares the operator (may consume blocking inputs, e.g. sort/agg).
  virtual Status Init() = 0;

  /// Produces the next batch into `out`; returns false at end of stream.
  Result<bool> Next(TupleBatch* out) {
    PSE_ASSIGN_OR_RETURN(bool has, InternalNext(out));
    if (has) {
      ++stats_.batches;
      stats_.output_rows += out->size();
    }
    return has;
  }

  const VecExecutorStats& stats() const { return stats_; }

 protected:
  virtual Result<bool> InternalNext(TupleBatch* out) = 0;

 private:
  VecExecutorStats stats_;
};

/// Builds the executor tree for a planned query. Takes no latches: run plans
/// through ExecutePlan, which holds them.
Result<std::unique_ptr<VecExecutor>> BuildVecExecutor(const PlanNode& plan,
                                                      Database* db);

}  // namespace pse

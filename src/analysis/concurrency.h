// Concurrency diagnostics for serving mixed-version load during migration.
//
// When foreground sessions execute queries while the MigrationExecutor
// evolves the schema (DESIGN.md §15, fleet/scheduler.h), three things can hurt
// them: the per-operator publish window must quiesce all in-flight readers
// (a long scan stalls it and, because the catalog latch is writer-
// preferring, every *new* reader queues behind the stall); the copy loop's
// per-batch shared latch contends with hot foreground scans of the same
// source tables; and a live query can be unservable on the intermediate
// schemas of the window. This analyzer predicts all three from the workload
// frequencies and entity cardinalities, before any data moves:
//
//   CONCURRENCY_QUIESCE_STALL    (warning) an operator's publish window can
//                                stall behind an active query whose scans
//                                exceed the configured row threshold;
//   CONCURRENCY_UNSERVABLE_PHASE (warning) an active query is unservable on
//                                an intermediate schema of the window, so
//                                live sessions will see BindErrors;
//   CONCURRENCY_HOT_SOURCE       (note) an operator's source tables are read
//                                by active queries — the copy loop's batch
//                                latch will contend with them;
//   CONCURRENCY_SINGLE_LANE      (note) the serve window is configured with
//                                fewer than two sessions, so it exercises no
//                                reader concurrency at all.
#pragma once

#include "analysis/diagnostic.h"
#include "core/mapping.h"
#include "core/physical_schema.h"
#include "core/workload.h"

namespace pse {

struct ConcurrencyOptions {
  /// Warn CONCURRENCY_QUIESCE_STALL when an active query scans more than
  /// this many rows (summed over its table accesses) on the schema an
  /// operator publishes from.
  uint64_t quiesce_drain_rows = 100000;
  /// Emit CONCURRENCY_HOT_SOURCE when the active-frequency share of queries
  /// reading an operator's source tables is at least this fraction.
  double hot_source_share = 0.25;
};

/// The serve window under analysis. `freqs` holds this phase's per-query
/// frequencies (arity must match `queries`); a query is *active* when its
/// frequency is positive. `applied` (optional) marks operators already
/// executed, which contribute their schema step but no diagnostics.
struct ConcurrencyInput {
  const PhysicalSchema* source = nullptr;
  const OperatorSet* opset = nullptr;
  const std::vector<bool>* applied = nullptr;
  const std::vector<WorkloadQuery>* queries = nullptr;
  const std::vector<double>* freqs = nullptr;
  /// Entity cardinalities for the scan-size estimates (optional; without
  /// them the quiesce-stall check is skipped).
  const LogicalStats* stats = nullptr;
  /// Foreground sessions the serve window will run (FleetOptions::serve_lanes).
  size_t sessions = 0;
  /// The new application's layout (optional). When set, the writability
  /// matrix over the window's operator sequence is computed
  /// (analysis/writability.h) and its WRITE_* findings merge into the
  /// report, so serving-phase lints cover writes, not just reads.
  const PhysicalSchema* object = nullptr;
};

/// \brief Predicts reader/migration interference for one serve window.
/// Never fails — problems come back as diagnostics.
DiagnosticReport AnalyzeConcurrency(const ConcurrencyInput& input,
                                    const ConcurrencyOptions& options = {});

}  // namespace pse

// Concurrent multi-version serving: the load-generation side of the paper's
// premise that old- and new-version applications keep issuing statements
// while the schema evolves underneath them.
//
// ServeWhile is the one serve driver: it runs the caller's background lanes
// (migrations) next to N serve lanes that execute a weighted statement mix
// against each target's currently *published* schema, and reports
// throughput plus latency percentiles. ServeDuringMigration is the driver
// over one database; FleetScheduler::Run (fleet/scheduler.h) is the driver
// over its shards.
//
// The consistency contract (DESIGN.md §15): a serve lane acquires the
// target's catalog latch shared, snapshots its serving schema, and keeps
// the latch across rewrite + plan + execute. The migration executor
// publishes each operator's post-op schema from inside its exclusive-latch
// quiesce window (MigrationOptions::on_publish), so a lane's snapshot can
// never disagree with the catalog it executes against — every statement
// sees either the pre-op or the post-op layout.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/physical_schema.h"
#include "core/rewriter_dml.h"
#include "core/workload.h"
#include "engine/bound_query.h"
#include "storage/database.h"

namespace pse {

/// Load-generator knobs for one serve window.
struct ServeOptions {
  /// Concurrent query sessions (worker lanes). The migration itself runs on
  /// one extra lane.
  size_t sessions = 4;
  /// Each lane executes at least this many queries even if the migration
  /// finishes instantly, so op-less phases still produce latency samples.
  uint64_t min_queries_per_lane = 4;
  /// Base RNG seed; lane l draws from seed + l, so a window's query mix is
  /// reproducible given (seed, sessions).
  uint64_t seed = 42;

  // -- writer lanes (the write half of the serve mix; DESIGN.md §19) --

  /// Router the writer share of the mix executes through. Null keeps the
  /// window read-only (write_fraction is then ignored). Wire the same router
  /// into MigrationOptions::dml_router so live-frontier writes dual-apply.
  DmlRouter* router = nullptr;
  /// Probability a lane iteration issues a write instead of a query.
  double write_fraction = 0.0;
  /// Produces the i-th write of a lane (i counts that lane's writes; rng is
  /// the lane's own, so the workload stays reproducible per (seed, lane)).
  std::function<LogicalDml(uint64_t, std::mt19937_64&)> make_write;
};

/// What happened during one serve window. An unservable *write* window (the
/// writability cell for the statement's DML kind is kUnservable on the live
/// intermediate — a planned write-unsafe phase) counts under `unservable`
/// exactly like an unservable read, never under `errors`.
struct ServeMetrics {
  uint64_t queries = 0;      ///< successfully executed foreground queries
  uint64_t writes = 0;       ///< successfully executed foreground writes
  uint64_t unservable = 0;   ///< skipped: not yet servable on the live schema
  uint64_t unservable_writes = 0;  ///< the write share of `unservable`
  uint64_t errors = 0;       ///< non-bind failures (must stay 0)
  double wall_ms = 0;        ///< window duration (migration + drain)
  double throughput_qps = 0; ///< (queries + writes) / wall
  /// Statement latency quantiles, read off the lanes' merged
  /// LatencyHistogram (within its kRelativeError of the exact ones).
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// \brief Latched holder of the schema snapshot foreground sessions serve
/// against.
///
/// Readers take a cheap shared_ptr snapshot; the migration swaps it from
/// on_publish inside the exclusive-catalog quiesce window. Callers must read
/// it while holding the database catalog latch shared (see file comment)
/// for the snapshot to be consistent with the physical catalog.
class ServingSchema {
 public:
  explicit ServingSchema(const PhysicalSchema& initial)
      : current_(std::make_shared<PhysicalSchema>(initial)) {
    // Snapshot swaps are pointer moves; nothing under this mutex may fault
    // a page, so lockdep treats any I/O under it as a violation.
    mu_.LockdepRegister("servingschema", kLockRankServing, /*allows_io=*/false);
  }

  std::shared_ptr<const PhysicalSchema> Get() const {
    std::lock_guard<Mutex> lock(mu_);
    return current_;
  }
  void Publish(const PhysicalSchema& schema) {
    auto next = std::make_shared<PhysicalSchema>(schema);
    std::lock_guard<Mutex> lock(mu_);
    current_ = std::move(next);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const PhysicalSchema> current_;
};

/// One database the serve driver issues statements against.
struct ServeTarget {
  Database* db = nullptr;
  ServingSchema* serving = nullptr;
  /// Router the target's writes execute through; null makes it read-only.
  DmlRouter* router = nullptr;
};

/// Rewrites `query` onto `schema`, the snapshot of targets[target]. The
/// driver calls it while holding that target's catalog latch shared.
using ReadRewrite = std::function<Result<BoundQuery>(
    size_t target, const LogicalQuery& query, const PhysicalSchema& schema)>;

/// A lane that runs next to the serve lanes, typically a migration. `abort`
/// turns true once any background lane has failed.
using BackgroundLane = std::function<Status(const std::atomic<bool>& abort)>;

/// What the serve lanes of one window issue, and against what.
struct ServeWindow {
  /// A lane picks one of these uniformly for each statement.
  std::vector<ServeTarget> targets;
  ReadRewrite rewrite;  ///< required
  size_t lanes = 0;
  /// Statements each lane attempts even if the background lanes finish at
  /// once, so op-less windows still produce latency samples.
  uint64_t min_statements_per_lane = 0;
  /// Serve lane l (numbered after the background lanes) draws from
  /// seed + l, so a window's mix is reproducible.
  uint64_t seed = 0;
  /// Probability a lane iteration issues a write. Writes need make_write and
  /// a router on every target; otherwise the window is read-only.
  double write_fraction = 0.0;
  /// Produces the i-th write of a lane against targets[target].
  std::function<LogicalDml(size_t target, uint64_t i, std::mt19937_64& rng)> make_write;
};

/// \brief Runs every `background` lane while `window.lanes` serve lanes
/// drive `queries` (weighted by `freqs`; entries <= 0 never run) across the
/// window's targets.
///
/// Serve lanes loop until every background lane has returned *and* each
/// has attempted min_statements_per_lane; a failed background lane stops
/// them at once. A statement that is unservable on the live schema (a
/// BindError from the rewrite or the router: its attributes have no
/// physical home yet, or its write window is planned unsafe) counts as
/// `unservable`; any other failure counts as an error. The first background
/// failure is returned; else any error fails the window, carrying the first
/// error's code and message.
Result<ServeMetrics> ServeWhile(const ServeWindow& window,
                                const std::vector<WorkloadQuery>& queries,
                                const std::vector<double>& freqs,
                                const std::vector<BackgroundLane>& background);

/// \brief Runs `migrate` while `options.sessions` lanes serve `queries`:
/// ServeWhile over one target, with `migrate` as its one background lane
/// and RewriteQuery as the read rewrite.
///
/// The caller wires `serving` to the executor via
/// MigrationOptions::on_publish before calling. `migrate` runs exactly once;
/// it may apply any number of operators.
Result<ServeMetrics> ServeDuringMigration(Database* db, ServingSchema* serving,
                                          const std::vector<WorkloadQuery>& queries,
                                          const std::vector<double>& freqs,
                                          const ServeOptions& options,
                                          const std::function<Status()>& migrate);

}  // namespace pse

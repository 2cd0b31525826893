// FleetScheduler: advances thousands of tenant shards along the shared
// migration schedule while serve lanes keep answering mixed-version traffic
// on every shard — the paper's progressive rollout, fleet-wide. Run is the
// one serve loop: a single database serves as a fleet of one shard.
//
// Three cooperating pieces:
//
//   IoTokenBucket   a global budget on concurrently copying shards. Every
//                   shard holds one token per in-flight copy batch (and
//                   returns it between batches), so however many migration
//                   lanes run, at most `capacity` shards do migration I/O
//                   at any instant — the SaaS operator's "don't melt the
//                   storage tier" knob.
//
//   round-robin     which eligible shard migrates next: a cursor cycles the
//   picks           shard ids, skipping shards that are busy or done, so
//                   the lanes interleave the fleet and drain all of it.
//
//   serve lanes     each statement goes to a shard picked uniformly, served
//                   at whatever step the shard publishes. A read's rewrite
//                   comes from the fleet's SharedPlanCache, keyed on the
//                   shard's published step and fetched under the shard's
//                   catalog latch; plans stay per-tenant, rewrites amortize
//                   fleet-wide. Writes go through the shard's DmlRouter.
//
// Lock classes (DESIGN.md §17/§20): "fleet" (rank 4) guards pick/busy
// state, "shard:<id>" (6) each shard's trajectory state, "fleet:iobudget"
// (8) the token bucket, "fleet:plancache" (28) the rewrite cache. All sort
// below/above the existing catalog (10) … bufferpool (40) ranks so lockdep
// checks the fleet paths end to end.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/migration_executor.h"
#include "core/rewriter_dml.h"
#include "core/workload.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"

namespace pse {

/// \brief Counting budget on concurrent migration I/O, blocking at capacity.
class IoTokenBucket {
 public:
  explicit IoTokenBucket(uint64_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    mu_.LockdepRegister("fleet:iobudget", kLockRankFleetIo, /*allows_io=*/false);
  }

  /// Takes one token, blocking while the bucket is drained.
  void Acquire();
  /// Returns one token and wakes a waiter.
  void Release();

  uint64_t capacity() const { return capacity_; }
  uint64_t outstanding() const;
  /// High-water mark of simultaneously held tokens (exact: tracked under
  /// the bucket mutex). The scheduler invariant peak <= capacity is pinned
  /// by tests/fleet/scheduler_test.cc.
  uint64_t peak_outstanding() const;
  uint64_t total_acquired() const;

 private:
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  uint64_t capacity_;
  uint64_t outstanding_ = 0;
  uint64_t peak_ = 0;
  uint64_t total_ = 0;
};

/// Knobs for one fleet run.
struct FleetOptions {
  /// Lanes advancing migrations (each works one shard at a time).
  size_t migration_lanes = 2;
  /// Lanes serving foreground traffic across all shards.
  size_t serve_lanes = 2;
  /// IoTokenBucket capacity: shards copying concurrently at any instant.
  uint64_t io_tokens = 4;
  /// Each serve lane attempts at least this many statements even when the
  /// fleet migration finishes at once, so op-less windows still produce
  /// latency samples.
  uint64_t min_queries_per_lane = 32;
  uint64_t seed = 42;
  /// Probability a serve-lane iteration issues a write; needs make_write.
  double write_fraction = 0.0;
  /// Produces the i-th write of a lane against the shard with id `shard`
  /// (the lane's rng keeps the workload reproducible per (seed, lane)).
  std::function<LogicalDml(size_t shard, uint64_t i, std::mt19937_64& rng)> make_write;
  /// Base migration options per operator (batch sizing, user hooks); each
  /// shard wires its router/publish on top — see TenantShard::AdvanceOneOp.
  MigrationOptions migration;
  /// Observer called after every successfully applied operator (outside all
  /// fleet locks) with the shard index and its new step — the scheduler
  /// tests reconstruct migration order from it.
  std::function<void(size_t shard, size_t step)> on_shard_op;
};

/// Fleet-wide outcome of one Run window: what the serve lanes did, then the
/// migration side. An unservable *write* (the writability cell for its DML
/// kind is kUnservable on the live intermediate — a planned write-unsafe
/// phase) counts under `unservable` exactly like an unservable read, never
/// under `errors`.
struct FleetMetrics {
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
  size_t tenants = 0;
  size_t tenants_migrated = 0;  ///< shards that reached the end of the schedule
  uint64_t ops_applied = 0;
  uint64_t batches = 0;
  uint64_t migration_io = 0;
  PlanCacheStats plan_cache;      ///< delta of this run
  uint64_t io_capacity = 0;       ///< bucket capacity of the run
  uint64_t io_peak_outstanding = 0;
};

/// \brief Drives a fleet of shards through the shared schedule under load.
class FleetScheduler {
 public:
  /// `cache` is the fleet's shared rewrite/plan cache; must outlive the
  /// scheduler. The schedule is owned (all shards reference it via Run).
  FleetScheduler(FleetSchedule schedule, SharedPlanCache* cache);

  void AddShard(std::unique_ptr<TenantShard> shard);
  size_t size() const { return shards_.size(); }
  TenantShard* shard(size_t i) { return shards_[i].get(); }
  const FleetSchedule& schedule() const { return schedule_; }

  /// \brief Migrates every shard to the end of the schedule while serve
  /// lanes drive `queries` (weighted by `freqs`; entries <= 0 never run)
  /// across the fleet.
  ///
  /// Migration lanes take the low lane numbers. Lane 0 runs on the calling
  /// thread and lanes 1.. each on a thread of its own, which inherits the
  /// caller's CPU mask; serve lane l draws from seed + l. Serve lanes loop
  /// until every migration lane has returned *and* each has attempted
  /// min_queries_per_lane statements; a failed migration lane stops them at
  /// once. A statement unservable on the live schema (a BindError from the
  /// rewrite or the router: its attributes have no physical home yet, or
  /// its write window is planned unsafe) counts as `unservable`; any other
  /// failure is an error. Returns the first migration failure; else any
  /// error fails the run, carrying the first error's code and message.
  /// Needs at least one migration lane.
  Result<FleetMetrics> Run(const std::vector<WorkloadQuery>& queries,
                           const std::vector<double>& freqs, const FleetOptions& options);

 private:
  /// Picks and busy-marks the next eligible shard after the round-robin
  /// cursor; -1 when none is eligible.
  int PickNext();
  void FinishShard(size_t shard);

  Mutex mu_;  ///< "fleet": busy marks + round-robin cursor
  FleetSchedule schedule_;
  SharedPlanCache* cache_;
  std::vector<std::unique_ptr<TenantShard>> shards_;
  std::vector<uint8_t> busy_;
  size_t rr_cursor_ = 0;
};

}  // namespace pse

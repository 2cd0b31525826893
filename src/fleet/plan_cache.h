// SharedPlanCache: fleet-wide rewrite memoization keyed on (schema step,
// query text).
//
// Every tenant shard walks the same migration trajectory, so two shards at
// the same step have structurally identical schemas and a query rewrites to
// the same BoundQuery on both. The fleet therefore rewrites each (step,
// query) pair once and hands every later shard a clone — with N tenants at
// one step, planning amortizes to (N-1)/N cache hits (see
// tests/fleet/scheduler_test.cc).
//
// Only the *rewrite* is shared. Physical plans stay per-shard: PlanQuery
// consults the shard's own catalog statistics, which diverge as tenants'
// data does, so caching a plan across shards would be unsound. The cache
// also owns the fleet's QueryCostCache, so schedule planning (LAA candidate
// costing, src/fleet/schedule.h) memoizes across the whole fleet too.
//
// Locking: the map mutex is registered as "fleet:plancache" at
// kLockRankPlanCache (28) — lookups happen while the serving lane holds a
// shard's catalog latch shared (rank 10), and must release before ExecutePlan
// takes table latches (rank 30). No I/O may happen under it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/logical_query.h"
#include "core/physical_schema.h"
#include "engine/bound_query.h"
#include "engine/cost_cache.h"

namespace pse {

/// Counters of one cache's activity. An unservable outcome (the query does
/// not bind on that step's schema) is cached and counted like any other hit.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t lookups() const { return hits + misses; }
  /// Hit percentage in [0, 100]; 0 when no lookups happened.
  double hit_pct() const {
    return lookups() == 0 ? 0.0
                          : 100.0 * static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// \brief Thread-safe (step, query text) -> rewrite outcome map.
class SharedPlanCache {
 public:
  SharedPlanCache() {
    mu_.LockdepRegister("fleet:plancache", kLockRankPlanCache, /*allows_io=*/false);
  }

  /// Returns the rewrite of `query` on `schema`, which must be the shared
  /// trajectory's schema at `step` (the caller reads both from a shard's
  /// serving snapshot under its catalog latch). On a miss the rewrite runs
  /// and is stored; either way the returned BoundQuery is a private clone,
  /// so callers may bind and execute it without aliasing the cache.
  /// BindError when the query is unservable at that step (cached too —
  /// unservability is a property of the step, not the shard).
  Result<BoundQuery> GetOrRewrite(size_t step, const LogicalQuery& query,
                                  const PhysicalSchema& schema);

  PlanCacheStats Snapshot() const;
  size_t size() const;
  void Clear();

  /// The fleet-shared planner cost cache (schedule planning memoization).
  QueryCostCache* cost_cache() { return &cost_cache_; }

 private:
  struct Entry {
    std::shared_ptr<const BoundQuery> bound;  ///< null when unservable
    Status unservable;                        ///< the cached BindError, else OK
  };

  mutable Mutex mu_;
  /// By exact key text: the step, the query's name, its full logical text
  /// and its output names. A hit compares the whole text, so two queries
  /// share an entry only when they render alike, which their constants
  /// cannot do unless equal (ConstantExpr::ToString).
  std::unordered_map<std::string, Entry> entries_;
  PlanCacheStats stats_;
  QueryCostCache cost_cache_;
};

}  // namespace pse

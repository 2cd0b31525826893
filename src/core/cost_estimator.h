// Memoized + parallel workload costing: the shared engine under SelectOpsLaa
// and PlanGaa.
//
// CachedCostEstimator mirrors EstimateQueryCost / EstimateWorkloadCost
// semantics exactly (including fallback pricing of unservable queries) while
// memoizing each per-query estimate in a caller-owned QueryCostCache. A
// query's key is a tuple of interned ids (engine/cost_cache.h): the query's
// own id (its name + canonical text), the id of the statistics snapshot's
// full content, and — per support attribute, in ascending AttrId order — the
// id of the table layout (anchor + attributes) storing it, or kAbsent. A
// query with an empty support set keys on every table's id, sorted. Because
// a query's rewrite/plan/cost depends only on those tables (DESIGN.md
// §12/§13), candidate schemas that agree on them share one cached result —
// across enumeration subsets, GA generations, and migration points — and
// cached values are bit-identical to recomputation (the cache stores what
// the real estimator returned). Each non-key attribute lives in exactly one
// table (PhysicalSchema invariant 2), so two keys are equal exactly when the
// two schemas store the query's support in the same table layouts.
//
// ParallelCostEstimator fans independent candidate-schema costings across a
// ThreadPool. Each estimation already uses per-call scratch state (rewrite ->
// plan -> cost allocate locally; the engine is single-threaded by design), so
// the only shared mutable state is the mutex-guarded cache. Determinism:
// results land in index-addressed slots and callers reduce serially in
// enumeration order, so the parallel path picks the same winner as the
// serial one, ties included.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/workload.h"
#include "engine/cost_cache.h"

namespace pse {

/// \brief Workload costing with optional per-query memoization.
///
/// Thread-safe: QueryCost/WorkloadCost may be called concurrently (the cache
/// and the stats-id memo are mutex-guarded; everything else is read-only
/// after construction). The queries, logical schema, cache, and every
/// LogicalStats snapshot passed in must outlive the estimator and stay
/// unmodified while it is in use.
class CachedCostEstimator {
 public:
  /// `cache` may be null: the estimator then forwards to the uncached free
  /// functions, so planners need only one code path.
  CachedCostEstimator(const std::vector<WorkloadQuery>* queries, const LogicalSchema* logical,
                      QueryCostCache* cache);

  /// Memoized EstimateQueryCost for query index `q`.
  Result<double> QueryCost(size_t q, const PhysicalSchema& schema, const LogicalStats& stats);

  /// Memoized EstimateWorkloadCost: C(Schema) = sum C_i * F_i with the same
  /// fallback/penalty semantics and the same summation order as the free
  /// function (options.cache/estimator fields are ignored — this *is* the
  /// cached path). Interns `schema`'s tables once for all its queries.
  Result<double> WorkloadCost(const PhysicalSchema& schema, const LogicalStats& stats,
                              const std::vector<double>& freqs, const CostOptions& options);

  QueryCostCache* cache() const { return cache_; }
  bool caching() const { return cache_ != nullptr; }

 private:
  using Id = QueryCostCache::Id;

  /// One schema's tables, interned: the layout id of the table storing each
  /// non-key attribute (kAbsent when none), by AttrId, and — when some
  /// query has an empty support set — every table's id, sorted.
  struct SchemaIds {
    std::vector<Id> table_of_attr;
    std::vector<Id> all_tables;
  };
  SchemaIds InternSchema(const PhysicalSchema& schema) const;

  /// Interned id of a stats snapshot's content, memoized by address
  /// (snapshots are caller-owned and immutable for the estimator's lifetime).
  Id StatsId(const LogicalStats& stats);

  /// QueryCost with the schema and stats already interned; builds the key
  /// in `key_buffer`.
  Result<double> CachedQueryCost(size_t q, const PhysicalSchema& schema, const LogicalStats& stats,
                                 const SchemaIds& schema_ids, Id stats_id,
                                 std::vector<Id>* key_buffer);

  const std::vector<WorkloadQuery>* queries_;
  const LogicalSchema* logical_;
  QueryCostCache* cache_;
  /// Per-query support attributes (ascending) and interned query ids (only
  /// filled when caching).
  std::vector<std::vector<AttrId>> support_;
  std::vector<Id> query_ids_;
  bool any_empty_support_ = false;

  std::mutex stats_ids_mu_;
  std::vector<std::pair<const LogicalStats*, Id>> stats_ids_;
};

/// \brief Deterministic parallel fan-out of candidate-schema costing.
class ParallelCostEstimator {
 public:
  /// `pool` may be null (serial). The estimator must outlive this object.
  ParallelCostEstimator(CachedCostEstimator* estimator, ThreadPool* pool)
      : estimator_(estimator), pool_(pool) {}

  /// Costs `n` candidates: result[i] = WorkloadCost(schema_at(i), ...), with
  /// schema_at invoked inside the worker (candidate materialization is part
  /// of the fanned-out work). Results are positional, so any serial
  /// reduction over them is independent of worker scheduling.
  std::vector<Result<double>> CostAll(size_t n,
                                      const std::function<Result<PhysicalSchema>(size_t)>& schema_at,
                                      const LogicalStats& stats,
                                      const std::vector<double>& freqs,
                                      const CostOptions& options);

  /// Execution lanes used by CostAll (1 when no pool was given).
  size_t threads() const { return pool_ == nullptr ? 1 : pool_->num_threads(); }

 private:
  CachedCostEstimator* estimator_;
  ThreadPool* pool_;
};

}  // namespace pse

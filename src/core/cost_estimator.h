// Memoized workload costing: the shared engine under SelectOpsLaa and
// PlanGaa.
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
// The planners cost their candidates one after another on the calling
// thread, as the paper's Algorithms 1 and 2 do. The cache and the stats-id
// memo lock, so one estimator and one cache may serve several threads.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

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

}  // namespace pse

// Operator-interaction analyzer: exact plan-space pruning for LAA and
// query/cost provenance for every planner.
//
// LAA enumerates every dependency-closed subset of the remaining operators —
// O(2^m) schema cost estimations per migration point. Most of that
// enumeration is provably redundant: the phase cost C(Schema) = sum C_i*F_i
// decomposes over queries, and each query's cost depends only on the tables
// that store the attributes its rewrite can touch. This analyzer computes:
//
//  (a) the *footprint* of each MigrationOperator — the non-key attributes of
//      every table the operator reads or writes, captured by symbolic replay
//      (like the verifier's) plus the operand tables in the source schema;
//  (b) a pairwise *interference graph* — two operators interfere iff their
//      footprints overlap, one depends on the other, or some workload query's
//      support set touches both;
//  (c) connected-component *clusters* whose dependency-closed subsets can be
//      enumerated independently and combined best-per-cluster — exact,
//      because no query's cost term spans two clusters (queries that would
//      are merged into one cluster by construction), so the argmin over the
//      product space factorizes;
//  (d) per-query *relevance sets* — which operators can affect a query's
//      rewrite or cost on any reachable intermediate schema — so operators
//      no query ever touches surface as ANALYSIS_COST_IRRELEVANT_OP notes.
//
// The exactness argument is spelled out in DESIGN.md §12 and property-tested
// against brute-force SelectOpsLaa in tests/analysis/interaction_test.cc.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/mapping.h"
#include "core/workload.h"

namespace pse {

class QueryCostCache;

/// Planner options shared by LAA and GAA.
struct AnalysisOptions {
  /// LAA: enumerate per-cluster powersets and combine best-per-cluster
  /// choices instead of the full 2^m sweep. Exact under the interference
  /// analysis; the max_ops guard then bounds the largest cluster, not m.
  bool prune_laa = true;
  /// Shared memoized query-cost cache (engine/cost_cache.h), keyed by
  /// interned ids of the query, the statistics and the tables storing the
  /// query's support attributes (core/cost_estimator.h). Caller-owned so it
  /// persists across subsets, GA generations, and migration points; null =
  /// no caching. Exact: two schemas share an entry only when the query's
  /// relevant tables agree (DESIGN.md §13), and results stay bit-identical
  /// to uncached runs.
  QueryCostCache* cost_cache = nullptr;
};

/// Read/write footprint of one operator, per (a) above.
struct OperatorFootprint {
  /// Non-key attributes of every table the operator can read or write.
  std::set<AttrId> attrs;
  /// Anchor entities of those tables (display/reporting only).
  std::set<EntityId> anchors;
};

/// One interference cluster, per (c) above.
struct InteractionCluster {
  std::vector<int> ops;        ///< member operator indices, topological order
  std::vector<size_t> queries; ///< workload query indices coupled to this cluster
  /// Dependency-closed subsets of `ops` (= schemas a per-cluster LAA costs);
  /// 0 when the cluster is too large to count by enumeration.
  uint64_t closed_subsets = 0;
};

/// \brief The full analysis over (OperatorSet, PhysicalSchema, workload).
struct InteractionAnalysis {
  std::vector<int> remaining;  ///< not-yet-applied operator indices
  /// Footprint of remaining[i], parallel to `remaining`.
  std::vector<OperatorFootprint> footprints;
  std::vector<InteractionCluster> clusters;
  /// cluster_of[op] = index into `clusters`, or -1 when already applied.
  std::vector<int> cluster_of;
  /// Relevance sets (d): query_ops[q] = remaining operators that can affect
  /// query q's rewrite/cost on any reachable intermediate schema. Empty when
  /// no workload was supplied.
  std::vector<std::vector<int>> query_ops;
  /// Queries no remaining operator can affect: their cost is constant across
  /// the whole plan space and needs estimating once per schema, not 2^m times.
  std::vector<size_t> untouched_queries;
  /// Product of per-cluster closed-subset counts = dependency-closed subsets
  /// a brute-force LAA would cost. Double: the whole point is that this can
  /// dwarf 2^63. Upper-bounded by 2^size for clusters too large to count.
  double closed_subsets_total = 1;

  /// Human-readable report: footprints, interference clusters, plan-space
  /// reduction, per-query relevance, cost-irrelevant operators.
  std::string ToString(const OperatorSet& opset, const LogicalSchema& logical,
                       const std::vector<WorkloadQuery>* queries) const;
};

/// Non-key attributes whose placement differs between `before` and `after`:
/// the union of non-key attrs of every table present in one schema but not
/// (identically) in the other. This is exactly what one operator application
/// touches when `after` = `before` + op.
std::set<AttrId> SchemaDeltaAttrs(const PhysicalSchema& before, const PhysicalSchema& after);

/// The non-key attributes `query`'s rewrite (and therefore cost) can depend
/// on: its referenced attributes plus the FK-chain attributes the rewriter
/// resolves to join parent fragments. An empty result means the query gives
/// the analysis nothing to anchor on (e.g. key-only selects) and callers
/// must treat it as coupled to everything.
std::set<AttrId> QuerySupportAttrs(const LogicalQuery& query, const LogicalSchema& logical);

/// \brief Runs the analysis. `applied` marks operators already applied in
/// earlier migration points (excluded from the graph); `queries` is optional
/// (null disables query coupling and relevance sets — clusters then reflect
/// footprint overlap and dependencies only, which is still exact for any
/// workload whose every query couples at most one cluster... callers that
/// plan against a workload must pass it).
///
/// Fails when the operator set cannot be replayed (cycle, inapplicable op) —
/// run VerifyMigration first; the planners' gate already does.
Result<InteractionAnalysis> AnalyzeInteractions(const OperatorSet& opset,
                                                const PhysicalSchema& source,
                                                const std::vector<bool>& applied,
                                                const std::vector<WorkloadQuery>* queries);

/// Appends ANALYSIS_COST_IRRELEVANT_OP notes to `report`: one per remaining
/// operator whose footprint no workload query's support set touches. Such
/// operators cannot change C(Schema) in any phase — they are pure data
/// movement whose only scheduling constraint is the completion deadline.
void ReportCostIrrelevantOps(const InteractionAnalysis& analysis, const OperatorSet& opset,
                             const LogicalSchema& logical, DiagnosticReport* report);

}  // namespace pse

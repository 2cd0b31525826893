// LAA and GAA: the paper's two intermediate-schema selection algorithms.
//
// LAA (Algorithm 1) exhaustively scores every dependency-closed subset of
// the remaining operators against the *upcoming* phase's workload and
// applies the best — O(2^m) schema estimations per migration point.
//
// GAA (Section III.C) runs a genetic algorithm over assignment strings
// (gene g of operator o = "apply o at migration point g") whose evaluation
// function forward-scans all remaining phases with the predicted workload
// trend (Algorithm 2), optionally adding the data-movement I/O of each
// operator at its assigned point.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/interaction.h"
#include "core/cost_estimator.h"
#include "core/mapping.h"
#include "core/workload.h"
#include "engine/cost_cache.h"
#include "ga/genetic.h"

namespace pse {

/// Shared planning inputs at one migration point.
struct MigrationContext {
  const PhysicalSchema* current = nullptr;  ///< schema before this point
  const PhysicalSchema* object = nullptr;
  const OperatorSet* opset = nullptr;
  /// ops already applied in earlier points (size == opset->size()).
  std::vector<bool> applied;
  /// Predicted workload per phase: phase_freqs[p][q]. Phase indexes are
  /// global (0-based); planning at point p considers phases p..end. Every
  /// planning function below returns InvalidArgument for p >= num_phases().
  const std::vector<std::vector<double>>* phase_freqs = nullptr;
  /// Predicted data statistics per phase (size == phases, or 1 = static).
  const std::vector<LogicalStats>* phase_stats = nullptr;
  const std::vector<WorkloadQuery>* queries = nullptr;

  size_t num_phases() const { return phase_freqs->size(); }
  const LogicalStats& StatsAt(size_t phase) const {
    return phase_stats->size() == 1 ? (*phase_stats)[0]
                                    : (*phase_stats)[std::min(phase, phase_stats->size() - 1)];
  }
  /// Indices of not-yet-applied operators.
  std::vector<int> RemainingOps() const;
};

/// Rough data-movement I/O (pages read + written) of applying `op` when the
/// schema is `before` with statistics `stats`.
Result<double> EstimateOperatorIo(const MigrationOperator& op, const PhysicalSchema& before,
                                  const LogicalStats& stats);

// -- LAA --

/// One interference cluster's share of a pruned LAA run.
struct LaaClusterInfo {
  std::vector<int> ops;          ///< cluster members, topological order
  std::vector<int> chosen;       ///< the cluster-local winning subset
  double best_cost = 0;          ///< cluster-local cost (masked frequencies)
  size_t schemas_evaluated = 0;  ///< closed subsets enumerated in the cluster
};

struct LaaResult {
  std::vector<int> ops_to_apply;    ///< dependency-closed subset, topo order
  double best_cost = 0;             ///< estimated phase cost of the winner
  size_t schemas_evaluated = 0;     ///< schemas actually costed this run
  /// Dependency-closed subsets a brute-force sweep would cost — the paper's
  /// 2^m blow-up the interaction analysis avoids (== schemas_evaluated when
  /// pruning is off). Double: products of cluster counts can exceed 2^63.
  double schemas_exhaustive = 0;
  /// Cluster structure of the pruned run (empty when pruning is off).
  std::vector<LaaClusterInfo> clusters;
  /// Cost-cache activity of this run (all zeros when no cache was passed).
  CostCacheStats cache_stats;
  /// Wall-clock time of this planning run from entry, its input checks and
  /// verifier gate included, milliseconds.
  double wall_ms = 0;
};

/// Runs LAA at the migration point opening `current_phase`, scoring the
/// candidate schemas against the workload of `observed_phase` — what the
/// collector has measured so far. The paper's LAA adapts to the CURRENT
/// system status, so callers normally pass observed_phase = current_phase-1
/// (clamped); passing current_phase makes LAA clairvoyant (used by tests
/// and ablations).
///
/// With `analysis.prune_laa` (the default) the operator-interaction analysis
/// factorizes the enumeration into independent interference clusters — exact
/// (tests assert cost equality against brute force) and exponentially
/// cheaper, so `max_ops` guards the *largest cluster* instead of m and its
/// default is raised accordingly. With pruning off, the classic exhaustive
/// sweep runs and `max_ops` guards m itself.
Result<LaaResult> SelectOpsLaa(const MigrationContext& ctx, size_t current_phase,
                               size_t observed_phase, size_t max_ops = 30,
                               const AnalysisOptions& analysis = {});
/// Clairvoyant convenience overload (observed == upcoming).
inline Result<LaaResult> SelectOpsLaa(const MigrationContext& ctx, size_t current_phase) {
  return SelectOpsLaa(ctx, current_phase, current_phase);
}

// -- GAA --

struct GaaOptions {
  GaConfig ga;
  uint64_t seed = 12345;
  /// Recombination scheme: standard two-point crossover on assignment
  /// strings (default), or the paper's Fig 6 order-based recombination.
  bool use_order_crossover = false;
  /// Mutation: mixed segment-reversal + point (default) or point-only.
  bool point_mutation_only = false;
  /// Add EstimateOperatorIo of each op at its assigned point to the
  /// objective (the forward scan then also optimizes *when* to move data).
  bool include_migration_cost = false;
  /// Price queries that cannot run yet via the object schema (see
  /// CostOptions).
  double unservable_penalty = 3.0;
  /// The shared cost cache for candidate costing (GAA ignores
  /// `analysis.prune_laa`).
  AnalysisOptions analysis;
};

struct GaaResult {
  /// For each remaining op (in RemainingOps() order): the phase offset
  /// (0 = apply now) it is assigned to.
  std::vector<int> assignment;
  std::vector<int> remaining_ops;  ///< op indices matching `assignment`
  double best_cost = 0;            ///< estimated total cost of the plan
  size_t evaluations = 0;
  /// Cost-cache activity of this run (all zeros when no cache was passed):
  /// one lookup per query of each (operator set, phase) pair it prices.
  CostCacheStats cache_stats;
  /// Ops assigned to offset 0, in dependency order — what to apply now.
  std::vector<int> ApplyNow() const;
};

/// Runs GAA at `current_phase`, planning all remaining phases.
Result<GaaResult> PlanGaa(const MigrationContext& ctx, size_t current_phase,
                          const GaaOptions& options);

/// Exhaustive global optimum over all c^m assignments (ablation baseline;
/// only feasible for tiny instances). Same output shape as GAA.
Result<GaaResult> PlanExhaustiveGlobal(const MigrationContext& ctx, size_t current_phase,
                                       const GaaOptions& options, size_t max_ops = 10);

/// \brief The phase schemas of one planning call and their phase costs,
/// keyed by the set of operators applied on top of the call's current schema.
///
/// Algorithm 2 prices every phase of every assignment it scores, yet
/// assignments share most (operator set, phase) pairs. The memo sorts the
/// operators once, builds and validates each distinct schema once and prices
/// each pair once. The price is exact: a phase cost depends only on the
/// schema, the phase's statistics and frequencies, the object schema and the
/// unservable penalty, and a memo is bound to its `ctx` and its penalty.
/// Safe to share between threads; entries never move, so a returned pointer
/// stays valid for the memo's lifetime.
class PhaseSchemaMemo {
 public:
  /// One operator set's schema and its cost at each phase.
  class Entry {
   public:
    const PhysicalSchema& schema() const { return schema_; }

   private:
    friend class PhaseSchemaMemo;
    Entry(PhysicalSchema schema, size_t phases) : schema_(std::move(schema)), costs_(phases) {}
    PhysicalSchema schema_;
    std::vector<std::optional<double>> costs_;  ///< by global phase, under the memo's mutex
  };

  /// `ctx` must outlive the memo; its current schema is the empty set's.
  /// Every phase is priced with `unservable_penalty`.
  explicit PhaseSchemaMemo(const MigrationContext& ctx,
                           double unservable_penalty = GaaOptions{}.unservable_penalty);

  const MigrationContext& context() const { return *ctx_; }
  double unservable_penalty() const { return unservable_penalty_; }
  /// The context's operators in dependency order, sorted once when the memo
  /// is built; InvalidArgument on a dependency cycle.
  Result<const std::vector<int>*> TopologicalOrder() const;

  /// The empty set's entry.
  Entry* current() { return &current_; }

  /// Adds `op` to `*applied` and returns that set's entry, building its
  /// schema from `before` — the entry of `*applied` without `op` — on first
  /// use.
  Result<Entry*> Apply(const Entry& before, int op, std::vector<bool>* applied);

  /// C(Schema) of `entry`'s schema at global phase `phase`, priced on first
  /// use through `estimator` (null = EstimateWorkloadCost). Errors, and
  /// InvalidArgument for a phase past the schedule, are returned, not stored.
  Result<double> PhaseCost(Entry* entry, size_t phase, CachedCostEstimator* estimator);

  /// Distinct schemas built so far (the empty set's is not built).
  size_t size() const;

 private:
  const MigrationContext* ctx_;
  double unservable_penalty_;
  Result<std::vector<int>> topo_;
  Entry current_;
  mutable std::mutex mu_;
  std::unordered_map<std::vector<bool>, Entry> entries_;
};

/// Shared evaluation function (Algorithm 2): total cost of executing the
/// remaining phases under `assignment`. Exposed for tests and benches.
/// Returns InvalidArgument, before any costing, for an assignment no plan
/// can have: one whose arity differs from `remaining_ops`, or one that gives
/// an operator a gene outside [0, phases left] or before the gene of one of
/// its remaining prerequisites.
/// `estimator` optionally memoizes the per-query costings and `memo` the
/// dependency order, phase schemas and phase costs (null = sort, rebuild and
/// reprice every phase, the unmemoized reference; results are identical
/// either way). A memo must come from the same `ctx` and
/// `options.unservable_penalty`, or the call returns InvalidArgument. The
/// data-movement term of `options.include_migration_cost` is computed per
/// call.
Result<double> EvaluateAssignment(const MigrationContext& ctx, size_t current_phase,
                                  const std::vector<int>& remaining_ops,
                                  const std::vector<int>& assignment,
                                  const GaaOptions& options,
                                  CachedCostEstimator* estimator = nullptr,
                                  PhaseSchemaMemo* memo = nullptr);

}  // namespace pse

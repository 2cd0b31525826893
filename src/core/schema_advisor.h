// SchemaAdvisor — the paper's future-work extension (Section VI): "the
// optimization of schema design for more general purpose, not under the
// limitation on object schema driven, but the best physical design of
// schema for system workload distribution and data statistic."
//
// Greedy hill-climbing over the same three basic operators: from a seed
// schema, repeatedly apply the operator (any legal split / combine / create)
// that most reduces C(S) = sum C_i * F_i under the given workload snapshot,
// until no operator improves it. Because the moves are exactly the paper's
// operators, the advisor's output is always reachable from the seed by a
// progressive migration — AdviseSchema composes directly with
// ComputeOperatorSet + LAA/GAA to plan the path to the recommended design.
#pragma once

#include <vector>

#include "analysis/interaction.h"
#include "core/operators.h"
#include "core/workload.h"
#include "engine/cost_cache.h"

namespace pse {

struct AdvisorOptions {
  /// Hill-climbing step limit (each step applies one operator).
  size_t max_steps = 64;
  /// Also propose CreateTable for workload-referenced attributes that the
  /// seed schema does not store yet.
  bool allow_creates = true;
  /// Interaction-analysis toggles; `analysis.advisor_query_relevance` scores
  /// each candidate operator by re-estimating only the queries whose support
  /// set intersects the attributes the operator moves (delta update), instead
  /// of re-costing the whole workload per candidate. Exact: the remaining
  /// queries' plans cannot change.
  AnalysisOptions analysis;
};

struct AdvisorStep {
  MigrationOperator op;
  double cost_before = 0;
  double cost_after = 0;
};

struct AdvisorResult {
  PhysicalSchema schema;          ///< the recommended design
  double initial_cost = 0;        ///< C(seed)
  double final_cost = 0;          ///< C(recommendation)
  std::vector<AdvisorStep> steps; ///< the improving operators, in order
  size_t candidates_evaluated = 0;
  /// Individual query-cost estimations performed while scoring candidates;
  /// with `analysis.advisor_query_relevance` this drops from
  /// candidates × queries to candidates × affected-queries.
  size_t queries_estimated = 0;
  /// Cost-cache activity of this run (all zeros when no cache was passed).
  CostCacheStats cache_stats;
  /// Execution lanes used for candidate scoring (1 = serial).
  size_t threads = 1;
  /// Wall-clock time of this advisory run, milliseconds.
  double wall_ms = 0;
  /// Write-safety penalty of the recommended design against the seed layout
  /// as the live version (analysis/writability.h). With
  /// `analysis.write_safety` every candidate is scored as C(S) + penalty, so
  /// initial_cost/final_cost include it; 0 when the knob is off.
  double write_penalty = 0;
};

/// Searches for the best physical design for (queries, freqs) reachable
/// from `seed`. The workload must be fully servable by the final design;
/// attributes it references that are missing from `seed` are added via
/// CreateTable when allow_creates is set (else the search fails).
Result<AdvisorResult> AdviseSchema(const PhysicalSchema& seed, const LogicalStats& stats,
                                   const std::vector<WorkloadQuery>& queries,
                                   const std::vector<double>& freqs,
                                   const AdvisorOptions& options = {});

}  // namespace pse

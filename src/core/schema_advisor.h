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

#include "core/operators.h"
#include "core/workload.h"

namespace pse {

struct AdvisorOptions {
  /// Hill-climbing step limit (each step applies one operator).
  size_t max_steps = 64;
  /// Also propose CreateTable for workload-referenced attributes that the
  /// seed schema does not store yet.
  bool allow_creates = true;
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
  size_t candidates_evaluated = 0;  ///< legal trial schemas costed
  /// Wall-clock time of this advisory run, milliseconds.
  double wall_ms = 0;
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

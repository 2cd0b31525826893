#include "core/schema_advisor.h"

#include <map>
#include <set>

#include "analysis/verifier.h"
#include "common/stopwatch.h"

namespace pse {

namespace {

/// Minimum relative improvement to keep climbing (guards oscillation on
/// estimator noise).
constexpr double kMinImprovement = 1e-6;

/// Candidate operators applicable to `schema` right now:
///  * split off any single non-key attribute of a multi-attribute table;
///  * split off any embedded entity's whole attribute group;
///  * combine any legal pair of tables.
std::vector<MigrationOperator> CandidateOps(const PhysicalSchema& schema, int* next_id) {
  const LogicalSchema& L = *schema.logical();
  std::vector<MigrationOperator> out;
  for (size_t t = 0; t < schema.tables().size(); ++t) {
    const PhysicalTable& table = schema.tables()[t];
    std::vector<AttrId> nonkey;
    std::map<EntityId, std::vector<AttrId>> by_entity;
    for (AttrId a : table.attrs) {
      if (L.attr(a).is_key) continue;
      nonkey.push_back(a);
      by_entity[L.attr(a).entity].push_back(a);
    }
    if (nonkey.size() >= 2) {
      // Single-attribute splits.
      for (AttrId a : nonkey) {
        MigrationOperator op;
        op.kind = OperatorKind::kSplitTable;
        op.id = (*next_id)++;
        op.split_moved = {a};
        op.split_moved_anchor = L.attr(a).entity;
        out.push_back(std::move(op));
      }
      // Embedded-entity splits (re-normalization).
      for (const auto& [entity, attrs] : by_entity) {
        if (entity == table.anchor || attrs.size() < 2) continue;
        MigrationOperator op;
        op.kind = OperatorKind::kSplitTable;
        op.id = (*next_id)++;
        op.split_moved = attrs;
        op.split_moved_anchor = entity;
        out.push_back(std::move(op));
      }
    }
  }
  // Combines: any pair; legality is checked by ApplyOperator.
  for (size_t a = 0; a < schema.tables().size(); ++a) {
    for (size_t b = a + 1; b < schema.tables().size(); ++b) {
      AttrId rep_a = kInvalidId, rep_b = kInvalidId;
      for (AttrId x : schema.tables()[a].attrs) {
        if (!L.attr(x).is_key) {
          rep_a = x;
          break;
        }
      }
      for (AttrId x : schema.tables()[b].attrs) {
        if (!L.attr(x).is_key) {
          rep_b = x;
          break;
        }
      }
      if (rep_a == kInvalidId || rep_b == kInvalidId) continue;
      MigrationOperator op;
      op.kind = OperatorKind::kCombineTable;
      op.id = (*next_id)++;
      op.combine_left_rep = rep_a;
      op.combine_right_rep = rep_b;
      out.push_back(std::move(op));
    }
  }
  return out;
}

}  // namespace

Result<AdvisorResult> AdviseSchema(const PhysicalSchema& seed, const LogicalStats& stats,
                                   const std::vector<WorkloadQuery>& queries,
                                   const std::vector<double>& freqs,
                                   const AdvisorOptions& options) {
  const LogicalSchema& L = *seed.logical();
  Stopwatch wall;
  AdvisorResult result;
  result.schema = seed;
  int next_id = 100000;

  // 1. Make the workload servable: create missing referenced attributes.
  std::set<AttrId> referenced;
  for (const auto& wq : queries) {
    std::vector<std::string> cols;
    for (const auto& item : wq.query.select) {
      if (item.expr) item.expr->CollectColumns(&cols);
    }
    for (const auto& f : wq.query.filters) f->CollectColumns(&cols);
    for (const auto& g : wq.query.group_by) g->CollectColumns(&cols);
    for (const auto& c : cols) {
      PSE_ASSIGN_OR_RETURN(AttrId a, L.AttrByName(c));
      referenced.insert(a);
    }
  }
  std::map<EntityId, std::vector<AttrId>> missing;
  for (AttrId a : referenced) {
    if (L.attr(a).is_key) continue;
    if (!result.schema.TableOfNonKeyAttr(a).ok()) {
      missing[L.attr(a).entity].push_back(a);
    }
  }
  if (!missing.empty() && !options.allow_creates) {
    return Status::InvalidArgument("workload references attributes absent from the seed schema");
  }
  for (const auto& [entity, attrs] : missing) {
    MigrationOperator op;
    op.kind = OperatorKind::kCreateTable;
    op.id = next_id++;
    op.create_entity = entity;
    op.create_attrs = attrs;
    double before = 0;  // cost undefined while unservable
    PSE_RETURN_NOT_OK(ApplyOperator(op, &result.schema));
    AdvisorStep step;
    step.op = op;
    step.cost_before = before;
    result.steps.push_back(std::move(step));
  }

  PSE_ASSIGN_OR_RETURN(double cost, EstimateWorkloadCost(result.schema, stats, queries, freqs));
  result.initial_cost = cost;
  // Back-fill the create steps' costs now that the workload is servable.
  for (auto& step : result.steps) step.cost_after = cost;

  // 2. Greedy hill-climbing: score every legal move and take the cheapest;
  // on equal cost the first candidate wins.
  for (size_t step_count = 0; step_count < options.max_steps; ++step_count) {
    std::vector<MigrationOperator> candidates = CandidateOps(result.schema, &next_id);
    double best_cost = cost;
    std::optional<MigrationOperator> best_op;
    PhysicalSchema best_schema;
    for (const MigrationOperator& candidate : candidates) {
      PhysicalSchema trial = result.schema;
      if (!ApplyOperator(candidate, &trial).ok()) continue;  // illegal move
      Result<double> trial_cost = EstimateWorkloadCost(trial, stats, queries, freqs);
      if (!trial_cost.ok()) continue;
      ++result.candidates_evaluated;
      if (*trial_cost < best_cost) {
        best_cost = *trial_cost;
        best_op = candidate;
        best_schema = std::move(trial);
      }
    }
    if (!best_op.has_value() ||
        cost - best_cost < kMinImprovement * std::max(1.0, cost)) {
      break;
    }
    AdvisorStep step;
    step.op = *best_op;
    step.cost_before = cost;
    step.cost_after = best_cost;
    result.steps.push_back(std::move(step));
    result.schema = std::move(best_schema);
    cost = best_cost;
  }
  result.final_cost = cost;
  result.wall_ms = wall.ElapsedSeconds() * 1000.0;

  // 3. Static verification of the recommendation: the improving steps form a
  // sequential operator set from the seed; it must be well-formed, preserve
  // every seed attribute, and leave the whole workload answerable.
  OperatorSet step_opset;
  for (size_t i = 0; i < result.steps.size(); ++i) {
    step_opset.ops.push_back(result.steps[i].op);
    step_opset.deps.emplace_back();
    if (i > 0) step_opset.deps.back().push_back(static_cast<int>(i) - 1);
  }
  std::vector<std::vector<double>> one_phase{freqs};
  VerifyInput verify;
  verify.source = &seed;
  verify.object = &result.schema;
  verify.opset = &step_opset;
  verify.queries = &queries;
  verify.phase_freqs = &one_phase;
  VerifyOptions verify_options;
  verify_options.check_source_answerability = false;  // seed may lack created attrs
  DiagnosticReport report = VerifyMigration(verify, verify_options);
  if (!report.ok()) {
    return Status::Internal("advisor produced an unverifiable migration:\n" +
                            report.ToString());
  }
  return result;
}

}  // namespace pse

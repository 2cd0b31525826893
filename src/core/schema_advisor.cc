#include "core/schema_advisor.h"

#include <map>
#include <set>

#include "analysis/interaction.h"
#include "analysis/verifier.h"
#include "analysis/writability.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cost_estimator.h"

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

  CachedCostEstimator estimator(&queries, &L, options.analysis.cost_cache);
  ThreadPool* pool = options.analysis.pool;
  result.threads = pool != nullptr ? pool->num_threads() : 1;
  const CostCacheStats cache_before = options.analysis.cost_cache != nullptr
                                          ? options.analysis.cost_cache->Snapshot()
                                          : CostCacheStats{};

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

  // Write-safety pricing: the seed's tables are the live version whose DML
  // the climb must keep cheap to translate. Every score below is then
  // C(S) + penalty(S), so accepted steps trade query cost against write
  // propagation on equal terms.
  const bool write_safety = options.analysis.write_safety;
  const WriteSafetySpec write_spec =
      ResolveWriteSafety(options.analysis, &seed, /*new_schema=*/nullptr);
  auto write_penalty_of = [&](const PhysicalSchema& s) {
    return write_safety ? WriteSafetyPenalty(s, write_spec) : 0.0;
  };

  PSE_ASSIGN_OR_RETURN(double cost,
                       estimator.WorkloadCost(result.schema, stats, freqs, CostOptions{}));
  cost += write_penalty_of(result.schema);
  result.initial_cost = cost;
  if (!result.steps.empty()) {
    // Back-fill the create steps' costs now that the workload is servable.
    for (auto& step : result.steps) step.cost_after = cost;
  }

  // Support sets are schema-independent: compute them once for the whole
  // climb (only used on the relevance-based scoring path).
  std::vector<std::set<AttrId>> support;
  if (options.analysis.advisor_query_relevance) {
    support.reserve(queries.size());
    for (const auto& wq : queries) support.push_back(QuerySupportAttrs(wq.query, L));
  }

  // 2. Greedy hill-climbing.
  for (size_t step_count = 0; step_count < options.max_steps; ++step_count) {
    std::vector<MigrationOperator> candidates = CandidateOps(result.schema, &next_id);
    double best_cost = cost;
    std::optional<MigrationOperator> best_op;
    size_t best_index = 0;
    // Relevance path: per-query base costs on the current schema, so each
    // candidate re-estimates only the queries whose support set intersects
    // the attributes the operator moves. Any estimation failure falls back
    // to whole-workload scoring for this step.
    std::vector<double> base(queries.size(), 0.0);
    bool use_relevance = options.analysis.advisor_query_relevance;
    for (size_t q = 0; use_relevance && q < queries.size(); ++q) {
      if (freqs[q] <= 0) continue;
      auto c = estimator.QueryCost(q, result.schema, stats);
      if (c.ok()) {
        base[q] = *c;
      } else {
        use_relevance = false;
      }
    }
    // Materialize the legal trial schemas serially (ApplyOperator is cheap),
    // then score them — fanned across the pool when one is provided. Every
    // score lands in its candidate's slot, and the reduction below is serial
    // with the serial path's rule (strict improvement, first candidate wins),
    // so threading cannot change the chosen operator.
    struct Scored {
      double value = 0;
      size_t queries_estimated = 0;
      bool estimable = false;
    };
    std::vector<std::pair<size_t, PhysicalSchema>> trials;  // (candidate idx, schema)
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      PhysicalSchema trial = result.schema;
      if (!ApplyOperator(candidates[ci], &trial).ok()) continue;  // illegal move
      trials.emplace_back(ci, std::move(trial));
    }
    std::vector<Scored> scores(trials.size());
    auto score_one = [&](size_t ti) {
      const PhysicalSchema& trial = trials[ti].second;
      Scored s;
      if (use_relevance) {
        std::set<AttrId> delta = SchemaDeltaAttrs(result.schema, trial);
        s.value = cost;
        s.estimable = true;
        if (write_safety) {
          s.value += write_penalty_of(trial) - write_penalty_of(result.schema);
        }
        for (size_t q = 0; q < queries.size() && s.estimable; ++q) {
          if (freqs[q] <= 0) continue;
          bool affected = false;
          for (AttrId a : support[q]) {
            if (delta.count(a)) {
              affected = true;
              break;
            }
          }
          if (!affected) continue;  // placement of everything q touches is unchanged
          auto c = estimator.QueryCost(q, trial, stats);
          ++s.queries_estimated;
          if (!c.ok()) {
            s.estimable = false;
            break;
          }
          s.value += (*c - base[q]) * freqs[q];
        }
      } else {
        auto trial_cost = estimator.WorkloadCost(trial, stats, freqs, CostOptions{});
        if (trial_cost.ok()) {
          for (double f : freqs) s.queries_estimated += f > 0 ? 1 : 0;
          s.value = *trial_cost + write_penalty_of(trial);
          s.estimable = true;
        }
      }
      scores[ti] = s;
    };
    if (pool != nullptr) {
      pool->ParallelFor(trials.size(), score_one);
    } else {
      for (size_t ti = 0; ti < trials.size(); ++ti) score_one(ti);
    }
    for (size_t ti = 0; ti < trials.size(); ++ti) {
      result.queries_estimated += scores[ti].queries_estimated;
      if (!scores[ti].estimable) continue;
      ++result.candidates_evaluated;
      if (scores[ti].value < best_cost) {
        best_cost = scores[ti].value;
        best_op = candidates[trials[ti].first];
        best_index = ti;
      }
    }
    if (!best_op.has_value() ||
        cost - best_cost < kMinImprovement * std::max(1.0, cost)) {
      break;
    }
    PhysicalSchema best_schema = std::move(trials[best_index].second);
    AdvisorStep step;
    step.op = *best_op;
    step.cost_before = cost;
    step.cost_after = best_cost;
    result.steps.push_back(std::move(step));
    result.schema = std::move(best_schema);
    cost = best_cost;
  }
  result.final_cost = cost;
  result.write_penalty = write_penalty_of(result.schema);
  if (options.analysis.cost_cache != nullptr) {
    result.cache_stats = options.analysis.cost_cache->Snapshot() - cache_before;
  }
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

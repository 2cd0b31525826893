#include "core/simulation.h"

#include "core/migration_executor.h"
#include "core/workload_collector.h"
#include "core/rewriter.h"
#include "core/virtual_catalog.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

namespace {

/// Largest interference cluster LAA enumerates exhaustively at a point.
constexpr size_t kLaaMaxOps = 22;

}  // namespace

const char* SituationName(Situation s) {
  switch (s) {
    case Situation::kOptSchema:
      return "Opt-Schema";
    case Situation::kProSchema:
      return "Pro-Schema";
    case Situation::kObjSchema:
      return "Obj-Schema";
  }
  return "?";
}

double SituationReport::OverallCost() const {
  double total = 0;
  for (const auto& p : phases) total += p.query_cost;
  return total;
}

double SituationReport::TotalMigrationIo() const {
  double total = final_migration_io;
  for (const auto& p : phases) total += p.migration_io;
  return total;
}

MigrationSimulation::MigrationSimulation(const PhysicalSchema* source,
                                         const PhysicalSchema* object,
                                         const std::vector<WorkloadQuery>* queries,
                                         std::vector<std::vector<double>> phase_freqs,
                                         const LogicalDatabase* data, SimulationConfig config)
    : source_(source),
      object_(object),
      queries_(queries),
      phase_freqs_(std::move(phase_freqs)),
      data_(data),
      config_(config) {
  if (config_.visible_rows.empty()) {
    phase_stats_.push_back(data_->ComputeStats());
  } else {
    for (const auto& visible : config_.visible_rows) {
      phase_stats_.push_back(data_->ComputeStatsPrefix(visible));
    }
  }
}

Result<double> MigrationSimulation::MeasureQuery(Database* db, const PhysicalSchema& schema,
                                                 const LogicalQuery& query,
                                                 const LogicalStats& stats) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    if (bound.status().IsBindError()) {
      // Not servable yet (new attribute missing): price via the object
      // schema with the configured penalty.
      PSE_ASSIGN_OR_RETURN(double est, EstimateQueryCost(query, *object_, stats));
      return config_.gaa.unservable_penalty * est;
    }
    return bound.status();
  }
  if (!config_.measure_actual) {
    VirtualSchemaCatalog catalog(&schema, &stats);
    PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*bound, catalog));
    CostModel model(&catalog);
    PSE_ASSIGN_OR_RETURN(CostEstimate est, model.Estimate(*plan));
    return est.io_pages;
  }
  DatabaseCatalogView view(db);
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(*bound, view));
  PSE_RETURN_NOT_OK(db->pool()->EvictAll());
  uint64_t before = db->TotalIo();
  PSE_RETURN_NOT_OK(ExecutePlan(*plan, db).status());
  return static_cast<double>(db->TotalIo() - before);
}

Result<double> MigrationSimulation::MeasurePhase(Database* db, const PhysicalSchema& schema,
                                                 const std::vector<double>& freqs,
                                                 const LogicalStats& stats) {
  double total = 0;
  for (size_t q = 0; q < queries_->size(); ++q) {
    if (freqs[q] <= 0) continue;
    PSE_ASSIGN_OR_RETURN(double io, MeasureQuery(db, schema, (*queries_)[q].query, stats));
    total += io * freqs[q];
  }
  return total;
}

Result<SituationReport> MigrationSimulation::Run(Situation situation) {
  SituationReport report;
  report.situation = situation;
  const size_t num_phases = phase_freqs_.size();

  if (situation == Situation::kOptSchema) {
    // Two coexisting systems; each query runs on its native schema. The
    // synchronization overhead the paper's introduction mentions is NOT
    // charged — Opt is the idealized lower bound.
    Database source_db(config_.buffer_pool_pages);
    Database object_db(config_.buffer_pool_pages);
    const bool grows = !config_.visible_rows.empty();
    if (grows) {
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&source_db, *source_, config_.visible_rows[0]));
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&object_db, *object_, config_.visible_rows[0]));
    } else {
      PSE_RETURN_NOT_OK(data_->Materialize(&source_db, *source_));
      PSE_RETURN_NOT_OK(data_->Materialize(&object_db, *object_));
    }
    for (size_t p = 0; p < num_phases; ++p) {
      if (grows && p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&source_db, *source_,
                                                  config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&object_db, *object_,
                                                  config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      PhaseReport phase;
      for (size_t q = 0; q < queries_->size(); ++q) {
        if (phase_freqs_[p][q] <= 0) continue;
        const WorkloadQuery& wq = (*queries_)[q];
        Database* db = wq.is_old ? &source_db : &object_db;
        const PhysicalSchema& schema = wq.is_old ? *source_ : *object_;
        PSE_ASSIGN_OR_RETURN(double io, MeasureQuery(db, schema, wq.query, StatsAt(p)));
        phase.query_cost += io * phase_freqs_[p][q];
      }
      phase.schema_desc = "source + object (dual)";
      report.phases.push_back(std::move(phase));
    }
    return report;
  }

  if (situation == Situation::kObjSchema) {
    Database db(config_.buffer_pool_pages);
    const bool grows = !config_.visible_rows.empty();
    if (grows) {
      PSE_RETURN_NOT_OK(data_->MaterializePrefix(&db, *object_, config_.visible_rows[0]));
    } else {
      PSE_RETURN_NOT_OK(data_->Materialize(&db, *object_));
    }
    for (size_t p = 0; p < num_phases; ++p) {
      if (grows && p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&db, *object_, config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      PhaseReport phase;
      PSE_ASSIGN_OR_RETURN(phase.query_cost,
                           MeasurePhase(&db, *object_, phase_freqs_[p], StatsAt(p)));
      phase.schema_desc = "object";
      report.phases.push_back(std::move(phase));
    }
    return report;
  }

  // Pro-Schema: progressive migration.
  Database db(config_.buffer_pool_pages);
  const bool grows = !config_.visible_rows.empty();
  if (grows) {
    PSE_RETURN_NOT_OK(data_->MaterializePrefix(&db, *source_, config_.visible_rows[0]));
  } else {
    PSE_RETURN_NOT_OK(data_->Materialize(&db, *source_));
  }
  PhysicalSchema current = *source_;
  PSE_ASSIGN_OR_RETURN(OperatorSet opset, ComputeOperatorSet(*source_, *object_));
  std::vector<bool> applied(opset.size(), false);
  MigrationExecutor executor(&db, data_);
  last_planner_evaluations_ = 0;

  MigrationContext ctx;
  ctx.object = object_;
  ctx.opset = &opset;
  ctx.phase_freqs = &phase_freqs_;
  ctx.phase_stats = &phase_stats_;
  ctx.queries = queries_;

  WorkloadCollector collector(queries_->size());

  std::vector<std::vector<double>> planning_freqs = phase_freqs_;
  for (size_t p = 0; p < num_phases; ++p) {
    if (grows) {
      if (p > 0) {
        PSE_RETURN_NOT_OK(data_->MaterializeRange(&db, current, config_.visible_rows[p - 1],
                                                  config_.visible_rows[p]));
      }
      executor.set_visible_rows(config_.visible_rows[p]);
    }
    PhaseReport phase;
    ctx.current = &current;
    ctx.applied = applied;

    if (config_.forecast_from_observations && p > 0) {
      // Replace the unseen future (phases p..end) with the collector's
      // extrapolation of the phases measured so far.
      auto forecast = collector.Forecast(num_phases - p);
      if (forecast.ok()) {
        for (size_t f = 0; f < forecast->size(); ++f) {
          planning_freqs[p + f] = (*forecast)[f];
        }
      }
      ctx.phase_freqs = &planning_freqs;
    } else {
      ctx.phase_freqs = &phase_freqs_;
    }

    // --- migration point: choose and apply operators ---
    std::vector<int> to_apply;
    if (config_.planner == PlannerKind::kLaa) {
      // The paper's LAA adapts to the *measured* system status: at the
      // migration point opening phase p the collector has seen phase p-1.
      size_t observed = p == 0 ? 0 : p - 1;
      PSE_ASSIGN_OR_RETURN(LaaResult laa, SelectOpsLaa(ctx, p, observed, kLaaMaxOps));
      last_planner_evaluations_ += laa.schemas_evaluated;
      to_apply = laa.ops_to_apply;
    } else {
      // GAA re-plans at every point: the forecast it planned against may
      // have been imprecise (the paper's argument for re-planning).
      PSE_ASSIGN_OR_RETURN(GaaResult plan, PlanGaa(ctx, p, config_.gaa));
      last_planner_evaluations_ += plan.evaluations;
      to_apply = plan.ApplyNow();
      // Dependency order.
      PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
      std::vector<int> ordered;
      for (int i : topo) {
        if (std::find(to_apply.begin(), to_apply.end(), i) != to_apply.end()) {
          ordered.push_back(i);
        }
      }
      to_apply = ordered;
    }
    for (int op : to_apply) {
      PSE_ASSIGN_OR_RETURN(uint64_t io,
                           executor.Apply(opset.ops[static_cast<size_t>(op)], &current));
      phase.migration_io += static_cast<double>(io);
      applied[static_cast<size_t>(op)] = true;
    }
    phase.ops_applied = to_apply;
    phase.schema_desc = std::to_string(current.tables().size()) + " tables";

    // --- measure the phase under the current schema ---
    PSE_ASSIGN_OR_RETURN(phase.query_cost,
                         MeasurePhase(&db, current, phase_freqs_[p], StatsAt(p)));
    report.phases.push_back(std::move(phase));

    // The collector tallies what actually ran during this phase.
    for (size_t q = 0; q < queries_->size(); ++q) {
      PSE_RETURN_NOT_OK(collector.Record(q, phase_freqs_[p][q]));
    }
    collector.CloseWindow();
  }

  // Forced completion: whatever is left is applied after the last phase so
  // the system ends exactly on the object schema. If a mid-sequence operator
  // fails, the run fails, and ApplyAll's error names the operators applied
  // and the I/O spent before it.
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());
  std::vector<MigrationOperator> remaining;
  for (int i : topo) {
    if (!applied[static_cast<size_t>(i)]) {
      remaining.push_back(opset.ops[static_cast<size_t>(i)]);
      applied[static_cast<size_t>(i)] = true;
    }
  }
  auto final_io = executor.ApplyAll(remaining, &current);
  if (!final_io.ok()) {
    const Status& s = final_io.status();
    return Status(s.code(), "forced completion failed: " + s.message());
  }
  report.final_migration_io += static_cast<double>(*final_io);
  if (!current.EquivalentTo(*object_)) {
    return Status::Internal("progressive migration did not reach the object schema");
  }
  return report;
}

}  // namespace pse

// Heavyweight end-to-end tests: the full TPC-W migration at tiny scale,
// asserting (a) the paper's cost ordering, (b) byte-identical query results
// on every intermediate schema the planner actually visits, and (c) growth
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/rewriter.h"
#include "core/simulation.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

Result<std::vector<Row>> RunQuery(Database* db, const PhysicalSchema& schema,
                                  const LogicalQuery& q) {
  PSE_ASSIGN_OR_RETURN(BoundQuery bound, RewriteQuery(q, schema));
  DatabaseCatalogView view(db);
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(bound, view));
  PSE_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecutePlan(*plan, db));
  return SortedRows(std::move(rows));
}

class TpcwIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = BuildTpcwSchema();
    data_ = GenerateTpcwData(*schema_, ScaleTiny(), 11);
    auto workload = BuildTpcwWorkload(*schema_);
    ASSERT_TRUE(workload.ok());
    queries_ = std::move(*workload);
  }

  SimulationConfig Config(PlannerKind planner) {
    SimulationConfig config;
    config.planner = planner;
    config.buffer_pool_pages = 256;
    config.gaa.ga.population_size = 16;
    config.gaa.ga.generations = 20;
    return config;
  }

  std::unique_ptr<TpcwSchema> schema_;
  std::unique_ptr<LogicalDatabase> data_;
  std::vector<WorkloadQuery> queries_;
};

TEST_F(TpcwIntegrationTest, ThreeSituationOrdering) {
  auto freqs = IrregularFrequencies(3);
  MigrationSimulation sim(&schema_->source, &schema_->object, &queries_, freqs, data_.get(),
                          Config(PlannerKind::kLaa));
  auto opt = sim.Run(Situation::kOptSchema);
  auto pro = sim.Run(Situation::kProSchema);
  auto obj = sim.Run(Situation::kObjSchema);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  // The paper's bounds at the overall level (small tolerance for the
  // intermediate-beats-endpoints effect documented in DESIGN.md §10).
  EXPECT_LE(opt->OverallCost(), pro->OverallCost() * 1.10);
  EXPECT_LT(pro->OverallCost(), obj->OverallCost());
  EXPECT_GT(pro->TotalMigrationIo(), 0.0);
}

TEST_F(TpcwIntegrationTest, EveryVisitedSchemaPreservesOldQueryResults) {
  // Drive the migration manually with LAA, checking every OLD query against
  // its source-schema baseline on every intermediate schema. (New queries
  // are checked once servable, against the object baseline.)
  auto opset = ComputeOperatorSet(schema_->source, schema_->object);
  ASSERT_TRUE(opset.ok());

  Database db(512);
  ASSERT_TRUE(data_->Materialize(&db, schema_->source).ok());
  Database object_db(512);
  ASSERT_TRUE(data_->Materialize(&object_db, schema_->object).ok());

  // Baselines.
  std::vector<std::vector<Row>> baseline(queries_.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    Database* base_db = queries_[q].is_old ? &db : &object_db;
    const PhysicalSchema& base_schema = queries_[q].is_old ? schema_->source : schema_->object;
    auto rows = RunQuery(base_db, base_schema, queries_[q].query);
    ASSERT_TRUE(rows.ok()) << queries_[q].query.name << ": " << rows.status().ToString();
    baseline[q] = *rows;
  }

  auto freqs = IrregularFrequencies(5);
  std::vector<LogicalStats> stats{data_->ComputeStats()};
  PhysicalSchema current = schema_->source;
  std::vector<bool> applied(opset->size(), false);
  MigrationExecutor executor(&db, data_.get());

  for (size_t p = 0; p < 5; ++p) {
    MigrationContext ctx;
    ctx.current = &current;
    ctx.object = &schema_->object;
    ctx.opset = &*opset;
    ctx.applied = applied;
    ctx.phase_freqs = &freqs;
    ctx.phase_stats = &stats;
    ctx.queries = &queries_;
    auto laa = SelectOpsLaa(ctx, p, p == 0 ? 0 : p - 1);
    ASSERT_TRUE(laa.ok()) << laa.status().ToString();
    for (int op : laa->ops_to_apply) {
      ASSERT_TRUE(executor.Apply(opset->ops[static_cast<size_t>(op)], &current).ok());
      applied[static_cast<size_t>(op)] = true;
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      auto rows = RunQuery(&db, current, queries_[q].query);
      if (!rows.ok()) {
        // Only acceptable reason: a new attribute that does not exist yet.
        ASSERT_TRUE(rows.status().IsBindError())
            << queries_[q].query.name << ": " << rows.status().ToString();
        ASSERT_FALSE(queries_[q].is_old) << queries_[q].query.name;
        continue;
      }
      ASSERT_EQ(rows->size(), baseline[q].size())
          << queries_[q].query.name << " at phase " << p << "\n"
          << current.ToString();
      for (size_t r = 0; r < rows->size(); ++r) {
        ASSERT_TRUE(RowEq()((*rows)[r], baseline[q][r]))
            << queries_[q].query.name << " row " << r << ": " << RowToString((*rows)[r])
            << " vs " << RowToString(baseline[q][r]);
      }
    }
  }
  // Complete and re-verify everything on the final (object) schema.
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int i : *topo) {
    if (!applied[static_cast<size_t>(i)]) {
      ASSERT_TRUE(executor.Apply(opset->ops[static_cast<size_t>(i)], &current).ok());
    }
  }
  ASSERT_TRUE(current.EquivalentTo(schema_->object));
  for (size_t q = 0; q < queries_.size(); ++q) {
    auto rows = RunQuery(&db, current, queries_[q].query);
    ASSERT_TRUE(rows.ok()) << queries_[q].query.name;
    ASSERT_EQ(rows->size(), baseline[q].size()) << queries_[q].query.name;
  }
}

TEST_F(TpcwIntegrationTest, GrowthChangesPhaseStatsAndData) {
  auto freqs = IrregularFrequencies(3);
  SimulationConfig config = Config(PlannerKind::kLaa);
  config.visible_rows = TpcwGrowthPlan(*schema_, ScaleTiny(), 3, 0.5);
  MigrationSimulation sim(&schema_->source, &schema_->object, &queries_, freqs, data_.get(),
                          config);
  // Growing stats: orders double from first to last phase.
  EXPECT_NEAR(static_cast<double>(sim.StatsAt(0).entity_rows[schema_->orders]),
              0.5 * static_cast<double>(sim.StatsAt(2).entity_rows[schema_->orders]), 2.0);
  auto pro = sim.Run(Situation::kProSchema);
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  auto obj = sim.Run(Situation::kObjSchema);
  ASSERT_TRUE(obj.ok());
  EXPECT_LT(pro->OverallCost(), obj->OverallCost());
}

TEST_F(TpcwIntegrationTest, GaaSimulationReachesObject) {
  auto freqs = RegularFrequencies(3);
  MigrationSimulation sim(&schema_->source, &schema_->object, &queries_, freqs, data_.get(),
                          Config(PlannerKind::kGaa));
  auto pro = sim.Run(Situation::kProSchema);
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  EXPECT_GT(sim.last_planner_evaluations(), 0u);
}

TEST_F(TpcwIntegrationTest, ForecastDrivenGaaStaysClose) {
  // With the regular (linear) trend, planning from collector forecasts must
  // land within a few percent of planning with the true schedule.
  auto freqs = RegularFrequencies(4);
  SimulationConfig truth_config = Config(PlannerKind::kGaa);
  MigrationSimulation truth_sim(&schema_->source, &schema_->object, &queries_, freqs,
                                data_.get(), truth_config);
  auto truth = truth_sim.Run(Situation::kProSchema);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  SimulationConfig forecast_config = Config(PlannerKind::kGaa);
  forecast_config.forecast_from_observations = true;
  MigrationSimulation forecast_sim(&schema_->source, &schema_->object, &queries_, freqs,
                                   data_.get(), forecast_config);
  auto forecast = forecast_sim.Run(Situation::kProSchema);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_LT(forecast->OverallCost(), truth->OverallCost() * 1.10);
  EXPECT_GT(forecast->OverallCost(), truth->OverallCost() * 0.90);
}

}  // namespace
}  // namespace pse

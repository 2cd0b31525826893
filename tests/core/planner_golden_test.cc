// Golden planner outputs of three planning passes shaped like the
// benchmark's plan-fig8 pass: TPC-W 100MB(1:20), the Fig 9 frequencies, LAA
// at every migration point observing the previous phase (applying each
// winner), then GAA from the source with population 32, 40 generations and
// a stall limit of 12 — one fresh cost cache per pass, shared by its LAA and
// GAA runs. The plans, costs, evaluation counts and misses were recorded
// while cost-cache keys were built as strings and every GA phase schema was
// rebuilt and repriced per evaluation; interned keys and the phase-schema
// memo must leave them exactly as they were. The hits are the memo's: it
// prices each (operator set, phase) pair of a GAA run once, so GAA looks up
// the cache once per query of a priced pair, not once per chromosome.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/mapping.h"
#include "core/migration_planner.h"
#include "engine/cost_cache.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

struct GoldenPass {
  uint64_t ga_seed = 0;
  /// Per migration point: LAA's chosen operators and schemas costed.
  std::vector<std::vector<int>> laa_ops;
  std::vector<size_t> laa_schemas;
  std::vector<int> gaa_assignment;
  double gaa_best_cost = 0;
  size_t gaa_evaluations = 0;
  /// Cost-cache activity of the GAA run, then of the whole pass.
  uint64_t gaa_hits = 0, gaa_misses = 0;
  uint64_t pass_hits = 0, pass_misses = 0;
};

std::string IntList(const std::vector<int>& v) {
  std::string out = "{";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out + "}";
}

/// The pass as a C++ initializer, so a deliberate change of planner output
/// can be re-recorded from the failure message.
std::string ToInitializer(const GoldenPass& g) {
  std::string out = "{";
  out += std::to_string(g.ga_seed);
  out += ",\n {";
  for (size_t p = 0; p < g.laa_ops.size(); ++p) {
    if (p > 0) out += ", ";
    out += IntList(g.laa_ops[p]);
  }
  out += "},\n {";
  for (size_t p = 0; p < g.laa_schemas.size(); ++p) {
    if (p > 0) out += ", ";
    out += std::to_string(g.laa_schemas[p]);
  }
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%a", g.gaa_best_cost);
  out += "},\n ";
  out += IntList(g.gaa_assignment);
  out += ",\n ";
  out += cost;
  for (uint64_t n : {static_cast<uint64_t>(g.gaa_evaluations), g.gaa_hits, g.gaa_misses,
                     g.pass_hits, g.pass_misses}) {
    out += ", ";
    out += std::to_string(n);
  }
  return out + "}";
}

/// The benchmark's planner inputs: TPC-W 100MB(1:20) statistics, the TPC-W
/// workload and operator set, and the Fig 9 frequencies.
struct PlannerInputs {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  std::vector<LogicalStats> stats{GenerateTpcwData(*schema, Scaled100MB(), 42)->ComputeStats()};
  std::vector<WorkloadQuery> queries;
  OperatorSet opset;
  std::vector<std::vector<double>> freqs = Fig9IrregularFrequencies();
};

/// One pass, as the benchmark runs it.
GoldenPass RunPass(const PlannerInputs& in, uint64_t ga_seed) {
  GoldenPass out;
  out.ga_seed = ga_seed;
  QueryCostCache cache;
  AnalysisOptions analysis;
  analysis.cost_cache = &cache;
  PhysicalSchema current = in.schema->source;
  MigrationContext ctx;
  ctx.object = &in.schema->object;
  ctx.opset = &in.opset;
  ctx.applied.assign(in.opset.size(), false);
  ctx.phase_freqs = &in.freqs;
  ctx.phase_stats = &in.stats;
  ctx.queries = &in.queries;
  ctx.current = &current;
  for (size_t p = 0; p < in.freqs.size(); ++p) {
    auto laa = SelectOpsLaa(ctx, p, p == 0 ? 0 : p - 1, /*max_ops=*/22, analysis);
    EXPECT_TRUE(laa.ok()) << laa.status().ToString();
    if (!laa.ok()) return out;
    out.laa_ops.push_back(laa->ops_to_apply);
    out.laa_schemas.push_back(laa->schemas_evaluated);
    for (int op : laa->ops_to_apply) {
      EXPECT_TRUE(ApplyOperator(in.opset.ops[static_cast<size_t>(op)], &current).ok());
      ctx.applied[static_cast<size_t>(op)] = true;
    }
  }
  PhysicalSchema source = in.schema->source;
  ctx.current = &source;
  ctx.applied.assign(in.opset.size(), false);
  GaaOptions gaa;
  gaa.ga.population_size = 32;
  gaa.ga.generations = 40;
  gaa.ga.stall_generations = 12;
  gaa.seed = ga_seed;
  gaa.analysis.cost_cache = &cache;
  auto plan = PlanGaa(ctx, 0, gaa);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return out;
  out.gaa_assignment = plan->assignment;
  out.gaa_best_cost = plan->best_cost;
  out.gaa_evaluations = plan->evaluations;
  out.gaa_hits = plan->cache_stats.hits;
  out.gaa_misses = plan->cache_stats.misses;
  const CostCacheStats total = cache.Snapshot();
  out.pass_hits = total.hits;
  out.pass_misses = total.misses;
  return out;
}

// GA seeds of the benchmark's first three passes at --seed 1.
const std::vector<GoldenPass> kGolden = {
    {1000003,
     {{0, 1, 6, 7}, {}, {}, {}, {}},
     {17, 7, 7, 7, 7},
     {0, 0, 5, 4, 5, 5, 0, 0},
     0x1.074080c49ba5ep+17, 992, 4226, 0, 4464, 57},
    {1000004,
     {{0, 1, 6, 7}, {}, {}, {}, {}},
     {17, 7, 7, 7, 7},
     {0, 0, 5, 4, 5, 5, 0, 0},
     0x1.074080c49ba5ep+17, 1052, 4494, 0, 4732, 57},
    {1000005,
     {{0, 1, 6, 7}, {}, {}, {}, {}},
     {17, 7, 7, 7, 7},
     {0, 0, 5, 4, 5, 5, 1, 0},
     0x1.075080c49ba5ep+17, 1202, 4854, 0, 5092, 57},
};

TEST(PlannerGoldenTest, ThreePlanFig8PassesMatchTheirRecordedOutputs) {
  PlannerInputs in;
  auto queries = BuildTpcwWorkload(*in.schema);
  auto opset = ComputeOperatorSet(in.schema->source, in.schema->object);
  ASSERT_TRUE(queries.ok() && opset.ok());
  in.queries = std::move(*queries);
  in.opset = std::move(*opset);
  ASSERT_EQ(kGolden.size(), 3u);
  for (const GoldenPass& want : kGolden) {
    const GoldenPass got = RunPass(in, want.ga_seed);
    SCOPED_TRACE("recorded pass: " + ToInitializer(got));
    EXPECT_EQ(got.laa_ops, want.laa_ops);
    EXPECT_EQ(got.laa_schemas, want.laa_schemas);
    EXPECT_EQ(got.gaa_assignment, want.gaa_assignment);
    EXPECT_EQ(got.gaa_best_cost, want.gaa_best_cost);  // bit for bit
    EXPECT_EQ(got.gaa_evaluations, want.gaa_evaluations);
    EXPECT_EQ(got.gaa_hits, want.gaa_hits);
    EXPECT_EQ(got.gaa_misses, want.gaa_misses);
    EXPECT_EQ(got.pass_hits, want.pass_hits);
    EXPECT_EQ(got.pass_misses, want.pass_misses);
  }
}

}  // namespace
}  // namespace pse

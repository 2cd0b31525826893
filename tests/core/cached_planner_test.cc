// The exactness property behind the shared cost cache: LAA and GAA planning
// with a memoizing estimator must be *exactly* equal (EXPECT_EQ on doubles,
// not NEAR) to the uncached run — same chosen subsets, same costs, same
// evaluation counts — across randomized migrations, while one cache
// persists over every migration point. Randomized instances are generated
// like the LAA pruning property test: scramble the bookstore source with
// valid split/combine operators, recompute the operator set, and draw
// random workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mapping.h"
#include "core/migration_planner.h"
#include "engine/cost_cache.h"
#include "engine/expr.h"
#include "tests/common/run_lanes.h"
#include "tests/core/core_test_util.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

using coretest::Bookstore;
using testutil::RunLanes;

constexpr size_t kPhases = 3;

struct Instance {
  PhysicalSchema object;
  OperatorSet opset;
  std::vector<WorkloadQuery> queries;
  std::vector<std::vector<double>> freqs;  // kPhases x queries
};

/// Scrambles the bookstore source into a random reachable object schema and
/// draws a random workload + per-phase frequencies. Returns nullopt when the
/// draw degenerates (no ops, too many ops, or no usable queries).
std::optional<Instance> DrawInstance(const Bookstore& s, Rng* rng, size_t max_m) {
  Instance inst;
  inst.object = s.source;
  int next_id = 2000;
  for (int step = 0; step < 6; ++step) {
    double roll = rng->UniformDouble();
    MigrationOperator op;
    op.id = next_id++;
    if (roll < 0.4) {
      std::vector<std::pair<size_t, std::vector<AttrId>>> candidates;
      for (size_t t = 0; t < inst.object.tables().size(); ++t) {
        std::vector<AttrId> nonkey;
        for (AttrId a : inst.object.tables()[t].attrs) {
          if (!s.logical.attr(a).is_key) nonkey.push_back(a);
        }
        if (nonkey.size() >= 2) candidates.emplace_back(t, nonkey);
      }
      if (candidates.empty()) continue;
      auto& [t, nonkey] = candidates[rng->Index(candidates.size())];
      size_t count = 1 + rng->Index(nonkey.size() - 1);
      rng->Shuffle(&nonkey);
      op.kind = OperatorKind::kSplitTable;
      op.split_moved.assign(nonkey.begin(), nonkey.begin() + static_cast<long>(count));
      op.split_moved_anchor = s.logical.attr(op.split_moved[0]).entity;
    } else {
      if (inst.object.tables().size() < 2) continue;
      size_t a = rng->Index(inst.object.tables().size());
      size_t b = rng->Index(inst.object.tables().size());
      if (a == b) continue;
      std::vector<AttrId> a_nonkey, b_nonkey;
      for (AttrId x : inst.object.tables()[a].attrs) {
        if (!s.logical.attr(x).is_key) a_nonkey.push_back(x);
      }
      for (AttrId x : inst.object.tables()[b].attrs) {
        if (!s.logical.attr(x).is_key) b_nonkey.push_back(x);
      }
      if (a_nonkey.empty() || b_nonkey.empty()) continue;
      op.kind = OperatorKind::kCombineTable;
      op.combine_left_rep = a_nonkey[0];
      op.combine_right_rep = b_nonkey[0];
    }
    (void)ApplyOperator(op, &inst.object);
  }
  auto opset = ComputeOperatorSet(s.source, inst.object);
  if (!opset.ok()) return std::nullopt;
  if (opset->size() == 0 || opset->size() > max_m) return std::nullopt;
  inst.opset = std::move(*opset);

  size_t num_queries = 3 + rng->Index(4);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    EntityId anchor = rng->Index(s.logical.num_entities());
    std::vector<AttrId> reachable;
    for (AttrId a = 0; a < s.logical.num_attributes(); ++a) {
      const LogicalAttribute& attr = s.logical.attr(a);
      if (attr.is_key || attr.is_new) continue;
      if (s.logical.Reaches(anchor, attr.entity)) reachable.push_back(a);
    }
    if (reachable.empty()) continue;
    rng->Shuffle(&reachable);
    size_t picks = 1 + rng->Index(std::min<size_t>(3, reachable.size()));
    LogicalQuery q;
    q.name = "q";  // += form: GCC 12's operator+(const char*, string&&) trips -Wrestrict
    q.name += std::to_string(qi);
    q.anchor = anchor;
    for (size_t k = 0; k < picks; ++k) {
      const std::string& name = s.logical.attr(reachable[k]).name;
      q.select.emplace_back(Col(name), AggFunc::kNone, name);
    }
    inst.queries.emplace_back(std::move(q), /*is_old=*/true);
  }
  if (inst.queries.empty()) return std::nullopt;
  // A few zero frequencies on purpose: the short-circuit paths must stay
  // equal to the uncached ones too.
  inst.freqs.assign(kPhases, std::vector<double>(inst.queries.size()));
  for (auto& phase : inst.freqs) {
    for (double& f : phase) f = static_cast<double>(rng->Index(41));
  }
  return inst;
}

class CachedPlannerProperty : public ::testing::TestWithParam<uint64_t> {};

// Walks every migration point of several random migrations, comparing the
// cached LAA against the uncached one. One cache instance persists across
// all subsets, points, and instances of the walk — exactly how bench and
// shell use it.
TEST_P(CachedPlannerProperty, CachedLaaEqualsUncached) {
  auto bs = Bookstore::Make();
  Bookstore& s = *bs;
  auto data = s.MakeData(10, 30, 60);
  std::vector<LogicalStats> stats{data->ComputeStats()};
  Rng rng(GetParam());
  QueryCostCache cache;
  AnalysisOptions cached_options;
  cached_options.cost_cache = &cache;
  AnalysisOptions brute_uncached;
  brute_uncached.prune_laa = false;
  AnalysisOptions brute_cached = brute_uncached;
  brute_cached.cost_cache = &cache;

  int instances = 0;
  for (int iter = 0; iter < 10 && instances < 5; ++iter) {
    auto inst = DrawInstance(s, &rng, /*max_m=*/12);
    if (!inst.has_value()) continue;
    ++instances;

    PhysicalSchema current = s.source;
    MigrationContext ctx;
    ctx.current = &current;
    ctx.object = &inst->object;
    ctx.opset = &inst->opset;
    ctx.applied.assign(inst->opset.size(), false);
    ctx.phase_freqs = &inst->freqs;
    ctx.phase_stats = &stats;
    ctx.queries = &inst->queries;

    for (size_t p = 0; p < kPhases; ++p) {
      auto uncached = SelectOpsLaa(ctx, p, p);
      ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
      auto cached = SelectOpsLaa(ctx, p, p, /*max_ops=*/30, cached_options);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();

      EXPECT_EQ(cached->ops_to_apply, uncached->ops_to_apply);
      EXPECT_EQ(cached->best_cost, uncached->best_cost);  // bit-identical, no tolerance
      EXPECT_EQ(cached->schemas_evaluated, uncached->schemas_evaluated);
      EXPECT_EQ(uncached->cache_stats.lookups(), 0u);
      EXPECT_GT(cached->cache_stats.lookups(), 0u);

      // Replaying the same point hits the cache on every single lookup.
      auto replay = SelectOpsLaa(ctx, p, p, /*max_ops=*/30, cached_options);
      ASSERT_TRUE(replay.ok());
      EXPECT_EQ(replay->best_cost, uncached->best_cost);
      EXPECT_EQ(replay->cache_stats.misses, 0u);
      EXPECT_GT(replay->cache_stats.hits, 0u);

      // Small instances: the brute sweep must agree with itself under the
      // cache too (the brute row of the bench).
      if (inst->opset.size() <= 10) {
        auto b_uncached = SelectOpsLaa(ctx, p, p, /*max_ops=*/12, brute_uncached);
        ASSERT_TRUE(b_uncached.ok()) << b_uncached.status().ToString();
        auto b_cached = SelectOpsLaa(ctx, p, p, /*max_ops=*/12, brute_cached);
        ASSERT_TRUE(b_cached.ok()) << b_cached.status().ToString();
        EXPECT_EQ(b_cached->ops_to_apply, b_uncached->ops_to_apply);
        EXPECT_EQ(b_cached->best_cost, b_uncached->best_cost);
        EXPECT_EQ(b_cached->schemas_evaluated, b_uncached->schemas_evaluated);
      }

      // Advance the walk with the chosen subset, like the driver would.
      for (int op : uncached->ops_to_apply) {
        ASSERT_TRUE(ApplyOperator(inst->opset.ops[static_cast<size_t>(op)], &current).ok());
        ctx.applied[static_cast<size_t>(op)] = true;
      }
    }
  }
  EXPECT_GT(instances, 0);
  EXPECT_GT(cache.Snapshot().hits, 0u);
}

// Same property for GAA: with the memoizing estimator underneath, the GA
// must reproduce the uncached run gene for gene (identical rng stream,
// identical costs, identical counts).
TEST_P(CachedPlannerProperty, CachedGaaEqualsUncached) {
  auto bs = Bookstore::Make();
  Bookstore& s = *bs;
  auto data = s.MakeData(10, 30, 60);
  std::vector<LogicalStats> stats{data->ComputeStats()};
  Rng rng(GetParam() ^ 0x5aa5);
  QueryCostCache cache;

  int instances = 0;
  for (int iter = 0; iter < 8 && instances < 3; ++iter) {
    auto inst = DrawInstance(s, &rng, /*max_m=*/8);
    if (!inst.has_value()) continue;
    ++instances;

    MigrationContext ctx;
    ctx.current = &s.source;
    ctx.object = &inst->object;
    ctx.opset = &inst->opset;
    ctx.applied.assign(inst->opset.size(), false);
    ctx.phase_freqs = &inst->freqs;
    ctx.phase_stats = &stats;
    ctx.queries = &inst->queries;

    GaaOptions uncached_options;
    uncached_options.seed = 42 + GetParam();
    uncached_options.ga.population_size = 16;
    uncached_options.ga.generations = 10;
    uncached_options.include_migration_cost = true;
    GaaOptions cached_options = uncached_options;
    cached_options.analysis.cost_cache = &cache;

    auto uncached = PlanGaa(ctx, 0, uncached_options);
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
    auto cached = PlanGaa(ctx, 0, cached_options);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();

    EXPECT_EQ(cached->assignment, uncached->assignment);
    EXPECT_EQ(cached->remaining_ops, uncached->remaining_ops);
    EXPECT_EQ(cached->best_cost, uncached->best_cost);  // bit-identical
    EXPECT_EQ(cached->evaluations, uncached->evaluations);
    EXPECT_EQ(cached->ApplyNow(), uncached->ApplyNow());
    EXPECT_GT(cached->cache_stats.lookups(), 0u);
  }
  EXPECT_GT(instances, 0);
}

/// Checks PlanGaa against the unmemoized reference: the returned best cost
/// must equal, bit for bit, a fresh EvaluateAssignment of the returned
/// assignment that uses neither a phase-schema memo nor a cost estimator.
/// Runs with and without migration cost in the objective. Small instances
/// (m <= 5) also run PlanGaa without a cost cache, where the memo alone
/// must not move the plan, and check PlanExhaustiveGlobal the same way.
void ExpectPlansMatchUnmemoizedReference(const MigrationContext& ctx, GaaOptions base) {
  for (bool migration_cost : {false, true}) {
    SCOPED_TRACE(migration_cost ? "with migration cost" : "without migration cost");
    QueryCostCache cache;
    GaaOptions options = base;
    options.include_migration_cost = migration_cost;
    options.analysis.cost_cache = &cache;
    GaaOptions reference = options;
    reference.analysis.cost_cache = nullptr;

    auto plan = PlanGaa(ctx, 0, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto ref = EvaluateAssignment(ctx, 0, plan->remaining_ops, plan->assignment, reference);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(plan->best_cost, *ref);  // bit for bit

    if (plan->remaining_ops.size() <= 5) {
      GaaOptions uncached_options = options;
      uncached_options.analysis.cost_cache = nullptr;
      auto uncached = PlanGaa(ctx, 0, uncached_options);
      ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
      EXPECT_EQ(uncached->assignment, plan->assignment);
      EXPECT_EQ(uncached->best_cost, plan->best_cost);

      auto global = PlanExhaustiveGlobal(ctx, 0, options);
      ASSERT_TRUE(global.ok()) << global.status().ToString();
      auto global_ref =
          EvaluateAssignment(ctx, 0, global->remaining_ops, global->assignment, reference);
      ASSERT_TRUE(global_ref.ok()) << global_ref.status().ToString();
      EXPECT_EQ(global->best_cost, *global_ref);
    }
  }
}

TEST_P(CachedPlannerProperty, GaaBestCostEqualsUnmemoizedReference) {
  auto bs = Bookstore::Make();
  Bookstore& s = *bs;
  auto data = s.MakeData(10, 30, 60);
  std::vector<LogicalStats> stats{data->ComputeStats()};
  Rng rng(GetParam() ^ 0x3c3c);

  int instances = 0;
  for (int iter = 0; iter < 8 && instances < 3; ++iter) {
    auto inst = DrawInstance(s, &rng, /*max_m=*/8);
    if (!inst.has_value()) continue;
    ++instances;
    MigrationContext ctx;
    ctx.current = &s.source;
    ctx.object = &inst->object;
    ctx.opset = &inst->opset;
    ctx.applied.assign(inst->opset.size(), false);
    ctx.phase_freqs = &inst->freqs;
    ctx.phase_stats = &stats;
    ctx.queries = &inst->queries;
    GaaOptions options;
    options.seed = 7 + GetParam();
    options.ga.population_size = 16;
    options.ga.generations = 10;
    ExpectPlansMatchUnmemoizedReference(ctx, options);
  }
  EXPECT_GT(instances, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedPlannerProperty, ::testing::Values(11, 211, 3111));

/// The TPC-W migration with the Fig 9 workload at tiny scale.
struct TpcwPlanning {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  std::vector<LogicalStats> stats;
  std::vector<WorkloadQuery> queries;
  OperatorSet opset;
  std::vector<std::vector<double>> freqs = Fig9IrregularFrequencies();
  MigrationContext ctx;

  TpcwPlanning() {
    stats.push_back(GenerateTpcwData(*schema, ScaleTiny(), 42)->ComputeStats());
    auto workload = BuildTpcwWorkload(*schema);
    auto ops = ComputeOperatorSet(schema->source, schema->object);
    EXPECT_TRUE(workload.ok() && ops.ok());
    if (workload.ok()) queries = std::move(*workload);
    if (ops.ok()) opset = std::move(*ops);
    ctx.current = &schema->source;
    ctx.object = &schema->object;
    ctx.opset = &opset;
    ctx.applied.assign(opset.size(), false);
    ctx.phase_freqs = &freqs;
    ctx.phase_stats = &stats;
    ctx.queries = &queries;
  }
};

TEST(PhaseSchemaMemoTest, TpcwGaaBestCostEqualsUnmemoizedReference) {
  TpcwPlanning tpcw;
  ASSERT_GT(tpcw.opset.size(), 5u);
  GaaOptions options;
  options.seed = 2009;
  options.ga.population_size = 8;
  options.ga.generations = 5;
  ExpectPlansMatchUnmemoizedReference(tpcw.ctx, options);
}

// One memo and one cost cache shared by concurrent evaluations of random
// dependency-respecting assignments, one thread each, return what the
// unmemoized, uncached reference returns, and the memo builds each operator
// set's schema once.
TEST(PhaseSchemaMemoTest, SharedMemoMatchesReferenceAcrossThreads) {
  TpcwPlanning tpcw;
  const std::vector<int> remaining = tpcw.ctx.RemainingOps();
  const int phases = static_cast<int>(tpcw.freqs.size());
  Rng rng(99);
  std::vector<std::vector<int>> assignments;
  for (int draw = 0; draw < 4; ++draw) {
    std::vector<int> offset(tpcw.opset.size(), 0);
    std::vector<int> assignment(remaining.size());
    // Clamp each op, in topological order, to its prerequisites' offsets.
    auto topo = tpcw.opset.TopologicalOrder();
    ASSERT_TRUE(topo.ok());
    for (int op : *topo) {
      int off = static_cast<int>(rng.UniformInt(0, phases));
      for (int d : tpcw.opset.deps[static_cast<size_t>(op)]) {
        off = std::max(off, offset[static_cast<size_t>(d)]);
      }
      offset[static_cast<size_t>(op)] = off;
    }
    for (size_t i = 0; i < remaining.size(); ++i) {
      assignment[i] = offset[static_cast<size_t>(remaining[i])];
    }
    assignments.push_back(assignment);
    assignments.push_back(std::move(assignment));  // every set is requested twice
  }
  for (bool migration_cost : {false, true}) {
    GaaOptions options;
    options.include_migration_cost = migration_cost;
    PhaseSchemaMemo memo(tpcw.ctx);
    QueryCostCache cache;
    CachedCostEstimator estimator(&tpcw.queries, &tpcw.schema->logical, &cache);
    std::vector<Result<double>> memoized(assignments.size(),
                                         Result<double>(Status::Internal("not run")));
    RunLanes(assignments.size(), [&](size_t i) {
      memoized[i] =
          EvaluateAssignment(tpcw.ctx, 0, remaining, assignments[i], options, &estimator, &memo);
    });
    for (size_t i = 0; i < assignments.size(); ++i) {
      auto reference = EvaluateAssignment(tpcw.ctx, 0, remaining, assignments[i], options);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_TRUE(memoized[i].ok()) << memoized[i].status().ToString();
      EXPECT_EQ(*memoized[i], *reference);  // bit for bit
    }
    // At most one schema per operator of each distinct assignment: twins
    // reuse each other's schemas.
    EXPECT_GT(memo.size(), 0u);
    EXPECT_LE(memo.size(), assignments.size() / 2 * remaining.size());
  }
}

/// The (operator set, phase) pairs Algorithm 2 prices for `assignment`: at
/// phase p, the set of operators whose gene is at most p.
std::set<std::pair<std::vector<bool>, size_t>> PricedPairs(const TpcwPlanning& tpcw,
                                                           const std::vector<int>& remaining,
                                                           const std::vector<int>& assignment) {
  std::set<std::pair<std::vector<bool>, size_t>> pairs;
  for (size_t phase = 0; phase < tpcw.freqs.size(); ++phase) {
    std::vector<bool> set(tpcw.opset.size(), false);
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (assignment[i] <= static_cast<int>(phase)) set[static_cast<size_t>(remaining[i])] = true;
    }
    pairs.emplace(std::move(set), phase);
  }
  return pairs;
}

/// Cost-cache lookups of pricing one (operator set, phase) pair on its own.
uint64_t PairLookups(const TpcwPlanning& tpcw, const std::vector<bool>& set, size_t phase) {
  PhysicalSchema schema = tpcw.schema->source;
  auto topo = tpcw.opset.TopologicalOrder();
  EXPECT_TRUE(topo.ok());
  for (int op : *topo) {
    if (set[static_cast<size_t>(op)]) {
      EXPECT_TRUE(ApplyOperator(tpcw.opset.ops[static_cast<size_t>(op)], &schema).ok());
    }
  }
  QueryCostCache cache;
  CachedCostEstimator estimator(&tpcw.queries, &tpcw.schema->logical, &cache);
  CostOptions pricing;
  pricing.fallback_schema = tpcw.ctx.object;
  EXPECT_TRUE(estimator.WorkloadCost(schema, tpcw.stats[0], tpcw.freqs[phase], pricing).ok());
  return cache.Snapshot().lookups();
}

// Through one memo, an assignment evaluated again makes no cost-cache
// lookup and returns the same bits, and a second assignment that shares its
// early phases looks up only the pairs the first did not reach.
TEST(PhaseSchemaMemoTest, EachOperatorSetIsPricedOncePerPhase) {
  TpcwPlanning tpcw;
  const std::vector<int> remaining = tpcw.ctx.RemainingOps();
  // GAA's plan-fig8 choice: four operators now, one at offset 4, and three
  // deferred past the last of the five phases.
  const std::vector<int> first{0, 0, 5, 4, 5, 5, 0, 0};
  ASSERT_EQ(remaining.size(), first.size());
  ASSERT_EQ(tpcw.freqs.size(), 5u);
  // The same through offset 2; every later operator at offset 3.
  std::vector<int> second = first;
  for (int& gene : second) gene = std::min(gene, 3);

  GaaOptions options;
  PhaseSchemaMemo memo(tpcw.ctx, options.unservable_penalty);
  QueryCostCache cache;
  CachedCostEstimator estimator(&tpcw.queries, &tpcw.schema->logical, &cache);
  auto once = EvaluateAssignment(tpcw.ctx, 0, remaining, first, options, &estimator, &memo);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  const CostCacheStats after_first = cache.Snapshot();
  const auto first_pairs = PricedPairs(tpcw, remaining, first);
  uint64_t first_lookups = 0;
  for (const auto& [set, phase] : first_pairs) first_lookups += PairLookups(tpcw, set, phase);
  EXPECT_EQ(after_first.lookups(), first_lookups);

  auto twice = EvaluateAssignment(tpcw.ctx, 0, remaining, first, options, &estimator, &memo);
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ(*twice, *once);  // bit for bit
  EXPECT_EQ(cache.Snapshot().hits, after_first.hits);
  EXPECT_EQ(cache.Snapshot().misses, after_first.misses);

  auto shared = EvaluateAssignment(tpcw.ctx, 0, remaining, second, options, &estimator, &memo);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  size_t new_pairs = 0;
  uint64_t new_lookups = 0;
  for (const auto& [set, phase] : PricedPairs(tpcw, remaining, second)) {
    if (first_pairs.count({set, phase}) > 0) continue;
    ++new_pairs;
    new_lookups += PairLookups(tpcw, set, phase);
  }
  EXPECT_EQ(new_pairs, 2u);  // phases 3 and 4
  EXPECT_EQ(cache.Snapshot().lookups() - after_first.lookups(), new_lookups);

  for (const auto& [assignment, memoized] : {std::pair{first, *once}, std::pair{second, *shared}}) {
    auto reference = EvaluateAssignment(tpcw.ctx, 0, remaining, assignment, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(memoized, *reference);  // bit for bit
  }
}

// A memo's phase costs carry its unservable penalty, so an evaluation under
// another penalty is refused rather than served those costs.
TEST(PhaseSchemaMemoTest, RefusesAnotherPenalty) {
  TpcwPlanning tpcw;
  const std::vector<int> remaining = tpcw.ctx.RemainingOps();
  // Every operator deferred: each phase runs on the source schema, where the
  // new version's queries are unservable and priced with the penalty.
  const std::vector<int> deferred(remaining.size(), static_cast<int>(tpcw.freqs.size()));
  GaaOptions options;
  options.unservable_penalty = 5.0;
  PhaseSchemaMemo default_penalty(tpcw.ctx);
  ASSERT_NE(default_penalty.unservable_penalty(), options.unservable_penalty);
  auto refused =
      EvaluateAssignment(tpcw.ctx, 0, remaining, deferred, options, nullptr, &default_penalty);
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status().ToString();

  PhaseSchemaMemo bound(tpcw.ctx, options.unservable_penalty);
  auto memoized = EvaluateAssignment(tpcw.ctx, 0, remaining, deferred, options, nullptr, &bound);
  ASSERT_TRUE(memoized.ok()) << memoized.status().ToString();
  auto reference = EvaluateAssignment(tpcw.ctx, 0, remaining, deferred, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(*memoized, *reference);  // bit for bit
  auto default_reference = EvaluateAssignment(tpcw.ctx, 0, remaining, deferred, GaaOptions{});
  ASSERT_TRUE(default_reference.ok()) << default_reference.status().ToString();
  EXPECT_NE(*default_reference, *reference);
}

}  // namespace
}  // namespace pse

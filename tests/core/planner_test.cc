// Tests for LAA / GAA migration planning.
#include "core/migration_planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/core/core_test_util.h"

namespace pse {
namespace {

using coretest::Bookstore;

/// Workload: one old query that loves the source layout (author-anchored
/// scan, hurt by denormalization) and one new query that loves the object
/// layout (book+author join collapsed by the combine).
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(20, 40, 100);
    stats_.push_back(data_->ComputeStats());
    opset_r_ = std::make_unique<OperatorSet>();
    auto opset = ComputeOperatorSet(bs_->source, bs_->object);
    ASSERT_TRUE(opset.ok());
    *opset_r_ = std::move(*opset);

    // Old query: scan authors (cheap on source, distinct-scan on glossary).
    LogicalQuery old_q;
    old_q.anchor = bs_->author;
    old_q.select.emplace_back(Col("a_name"), AggFunc::kNone, "a_name");
    old_q.select.emplace_back(Col("a_bio"), AggFunc::kNone, "a_bio");
    queries_.emplace_back(std::move(old_q), /*is_old=*/true);

    // New query: book + author attributes (join on source, single table on
    // object), plus the new abstract column.
    LogicalQuery new_q;
    new_q.anchor = bs_->book;
    new_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "b_title");
    new_q.select.emplace_back(Col("a_name"), AggFunc::kNone, "a_name");
    new_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "b_abstract");
    queries_.emplace_back(std::move(new_q), /*is_old=*/false);

    // Old user query, indifferent to the user split.
    LogicalQuery user_q;
    user_q.anchor = bs_->user;
    user_q.select.emplace_back(Col("u_name"), AggFunc::kNone, "u_name");
    queries_.emplace_back(std::move(user_q), /*is_old=*/true);
  }

  MigrationContext MakeContext(const PhysicalSchema* current,
                               const std::vector<std::vector<double>>* freqs) {
    MigrationContext ctx;
    ctx.current = current;
    ctx.object = &bs_->object;
    ctx.opset = opset_r_.get();
    ctx.applied.assign(opset_r_->size(), false);
    ctx.phase_freqs = freqs;
    ctx.phase_stats = &stats_;
    ctx.queries = &queries_;
    return ctx;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::vector<LogicalStats> stats_;
  std::unique_ptr<OperatorSet> opset_r_;
  std::vector<WorkloadQuery> queries_;
};

TEST_F(PlannerTest, LaaKeepsSourceWhenOldDominates) {
  // Phase almost entirely old queries: staying near the source layout wins.
  std::vector<std::vector<double>> freqs{{100, 1, 50}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  auto laa = SelectOpsLaa(ctx, 0);
  ASSERT_TRUE(laa.ok()) << laa.status().ToString();
  // Denormalizing author into the book table would hurt the dominant
  // author scan; whatever subset LAA picks, a_name must stay in an
  // author-anchored table. (Merging the new abstract fragment into book is
  // fine -- it does not touch the author table.)
  PhysicalSchema schema = bs_->source;
  for (int op : laa->ops_to_apply) {
    ASSERT_TRUE(ApplyOperator(opset_r_->ops[static_cast<size_t>(op)], &schema).ok());
  }
  auto a_name_table = schema.TableOfNonKeyAttr(bs_->a_name);
  ASSERT_TRUE(a_name_table.ok());
  EXPECT_EQ(schema.tables()[*a_name_table].anchor, bs_->author);
  EXPECT_GT(laa->schemas_evaluated, 0u);
}

TEST_F(PlannerTest, LaaMovesToObjectWhenNewDominates) {
  std::vector<std::vector<double>> freqs{{1, 100, 1}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  auto laa = SelectOpsLaa(ctx, 0);
  ASSERT_TRUE(laa.ok()) << laa.status().ToString();
  // The new query needs b_abstract + the combined glossary; the best subset
  // must at least create the abstract fragment and combine book+author.
  bool has_create = false, has_combine = false;
  for (int op : laa->ops_to_apply) {
    if (opset_r_->ops[static_cast<size_t>(op)].kind == OperatorKind::kCreateTable) {
      has_create = true;
    }
    if (opset_r_->ops[static_cast<size_t>(op)].kind == OperatorKind::kCombineTable) {
      has_combine = true;
    }
  }
  EXPECT_TRUE(has_create);
  EXPECT_TRUE(has_combine);
}

TEST_F(PlannerTest, LaaExhaustiveModeEvaluatesWholePowerSetOfClosedSubsets) {
  std::vector<std::vector<double>> freqs{{10, 10, 10}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  AnalysisOptions brute;
  brute.prune_laa = false;
  auto laa = SelectOpsLaa(ctx, 0, /*observed_phase=*/0, /*max_ops=*/22, brute);
  ASSERT_TRUE(laa.ok());
  // 4 ops, dependency chain create -> combine -> combine plus the free user
  // split: exactly 4 * 2 = 8 dependency-closed subsets.
  EXPECT_EQ(laa->schemas_evaluated, 8u);
  EXPECT_DOUBLE_EQ(laa->schemas_exhaustive, 8.0);
  EXPECT_TRUE(laa->clusters.empty());
}

TEST_F(PlannerTest, LaaClusterPruningIsExactOnFixture) {
  // The interaction analysis splits the bookstore opset into the book/author
  // chain {create, combine, combine} and the independent user split; pruned
  // LAA must report that structure and match the brute-force cost exactly.
  for (const std::vector<double>& phase : std::vector<std::vector<double>>{
           {100, 1, 50}, {1, 100, 1}, {10, 10, 10}}) {
    std::vector<std::vector<double>> freqs{phase};
    MigrationContext ctx = MakeContext(&bs_->source, &freqs);
    auto pruned = SelectOpsLaa(ctx, 0);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    AnalysisOptions brute_options;
    brute_options.prune_laa = false;
    auto brute = SelectOpsLaa(ctx, 0, /*observed_phase=*/0, /*max_ops=*/22, brute_options);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(pruned->best_cost, brute->best_cost,
                1e-6 * std::max(1.0, brute->best_cost));
    EXPECT_DOUBLE_EQ(pruned->schemas_exhaustive,
                     static_cast<double>(brute->schemas_evaluated));
    // 1 residual + 4 chain subsets + 2 split subsets, vs 8 brute.
    EXPECT_EQ(pruned->schemas_evaluated, 7u);
    ASSERT_EQ(pruned->clusters.size(), 2u);
    EXPECT_EQ(pruned->clusters[0].ops.size() + pruned->clusters[1].ops.size(), 4u);
  }
}

TEST_F(PlannerTest, LaaGuardsAgainstExponentialBlowup) {
  std::vector<std::vector<double>> freqs{{10, 10, 10}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  // max_ops=2 bounds the largest *cluster* with pruning on; the book/author
  // chain has 3 members, so the guard still fires.
  auto laa = SelectOpsLaa(ctx, 0, /*observed_phase=*/0, /*max_ops=*/2);
  ASSERT_FALSE(laa.ok());
  EXPECT_EQ(laa.status().code(), StatusCode::kResourceExhausted);
  // With pruning off the same guard bounds m itself.
  AnalysisOptions brute;
  brute.prune_laa = false;
  auto laa2 = SelectOpsLaa(ctx, 0, /*observed_phase=*/0, /*max_ops=*/3, brute);
  ASSERT_FALSE(laa2.ok());
  EXPECT_EQ(laa2.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(PlannerTest, GaaAssignmentRespectsDependencies) {
  std::vector<std::vector<double>> freqs{{80, 20, 40}, {50, 50, 40}, {20, 80, 40}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  GaaOptions options;
  options.ga.population_size = 24;
  options.ga.generations = 30;
  auto gaa = PlanGaa(ctx, 0, options);
  ASSERT_TRUE(gaa.ok()) << gaa.status().ToString();
  ASSERT_EQ(gaa->assignment.size(), opset_r_->size());
  // Every dependency pair: prereq offset <= dependent offset.
  for (size_t i = 0; i < gaa->remaining_ops.size(); ++i) {
    int op = gaa->remaining_ops[i];
    for (int d : opset_r_->deps[static_cast<size_t>(op)]) {
      // Find d's position.
      for (size_t j = 0; j < gaa->remaining_ops.size(); ++j) {
        if (gaa->remaining_ops[j] == d) {
          EXPECT_LE(gaa->assignment[j], gaa->assignment[i]);
        }
      }
    }
  }
  EXPECT_GT(gaa->evaluations, 0u);
}

TEST_F(PlannerTest, GaaMatchesExhaustiveOnSmallInstance) {
  std::vector<std::vector<double>> freqs{{80, 20, 40}, {40, 60, 40}, {10, 90, 40}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  GaaOptions options;
  options.ga.population_size = 40;
  options.ga.generations = 60;
  options.seed = 99;
  auto gaa = PlanGaa(ctx, 0, options);
  auto exhaustive = PlanExhaustiveGlobal(ctx, 0, options);
  ASSERT_TRUE(gaa.ok());
  ASSERT_TRUE(exhaustive.ok());
  // 4 ops x 3 phases = 81 assignments: the GA should find the optimum.
  EXPECT_NEAR(gaa->best_cost, exhaustive->best_cost, exhaustive->best_cost * 0.01 + 1e-9);
}

TEST_F(PlannerTest, GaaForwardScanBeatsOrMatchesGreedy) {
  // Simulate LAA phase-by-phase vs GAA's committed plan, comparing the
  // estimated overall cost via EvaluateAssignment.
  std::vector<std::vector<double>> freqs{{90, 10, 40}, {50, 50, 40}, {10, 90, 40}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  GaaOptions options;
  options.ga.population_size = 40;
  options.ga.generations = 60;
  auto gaa = PlanGaa(ctx, 0, options);
  ASSERT_TRUE(gaa.ok());

  // Greedy: run LAA at each phase, track assignment offsets.
  PhysicalSchema current = bs_->source;
  std::vector<bool> applied(opset_r_->size(), false);
  std::vector<int> greedy_assignment(opset_r_->size(), static_cast<int>(freqs.size()) - 1);
  for (size_t p = 0; p < freqs.size(); ++p) {
    MigrationContext step = MakeContext(&current, &freqs);
    step.applied = applied;
    auto laa = SelectOpsLaa(step, p);
    ASSERT_TRUE(laa.ok());
    for (int op : laa->ops_to_apply) {
      ASSERT_TRUE(ApplyOperator(opset_r_->ops[static_cast<size_t>(op)], &current).ok());
      applied[static_cast<size_t>(op)] = true;
      greedy_assignment[static_cast<size_t>(op)] = static_cast<int>(p);
    }
  }
  std::vector<int> all_ops;
  for (size_t i = 0; i < opset_r_->size(); ++i) all_ops.push_back(static_cast<int>(i));
  MigrationContext eval_ctx = MakeContext(&bs_->source, &freqs);
  auto greedy_cost = EvaluateAssignment(eval_ctx, 0, all_ops, greedy_assignment, options);
  ASSERT_TRUE(greedy_cost.ok());
  EXPECT_LE(gaa->best_cost, *greedy_cost * 1.0001);
}

TEST_F(PlannerTest, OperatorIoEstimatesArePositive) {
  const LogicalStats& stats = stats_[0];
  for (const auto& op : opset_r_->ops) {
    PhysicalSchema schema = bs_->source;
    // Apply prerequisites first so the op is applicable.
    if (op.kind == OperatorKind::kCombineTable) {
      // Ensure the created fragment exists for the abstract-combine.
      for (const auto& pre : opset_r_->ops) {
        if (pre.kind == OperatorKind::kCreateTable) (void)ApplyOperator(pre, &schema);
      }
    }
    auto io = EstimateOperatorIo(op, schema, stats);
    ASSERT_TRUE(io.ok());
    EXPECT_GT(*io, 0.0) << op.ToString(bs_->logical);
  }
}

TEST_F(PlannerTest, EmptyRemainingOpsIsTrivial) {
  std::vector<std::vector<double>> freqs{{10, 10, 10}};
  MigrationContext ctx = MakeContext(&bs_->object, &freqs);
  ctx.applied.assign(opset_r_->size(), true);
  GaaOptions options;
  auto gaa = PlanGaa(ctx, 0, options);
  ASSERT_TRUE(gaa.ok());
  EXPECT_TRUE(gaa->assignment.empty());
  EXPECT_TRUE(gaa->ApplyNow().empty());
}

TEST_F(PlannerTest, EveryEntryPointRefusesAPhasePastTheSchedule) {
  // Phases are 0-based, so a 3-phase schedule has migration points 0..2.
  // Past it, every planner returns InvalidArgument naming the phase before
  // it reads a frequency vector that does not exist.
  std::vector<std::vector<double>> freqs{{90, 10, 40}, {50, 50, 40}, {10, 90, 40}};
  MigrationContext ctx = MakeContext(&bs_->source, &freqs);
  const std::vector<int> remaining = ctx.RemainingOps();
  const std::vector<int> assignment(remaining.size(), 0);
  GaaOptions options;
  for (size_t phase : {freqs.size(), freqs.size() + 1}) {
    const std::string name = "phase " + std::to_string(phase) + " ";
    const Status statuses[] = {
        SelectOpsLaa(ctx, phase).status(),
        PlanGaa(ctx, phase, options).status(),
        EvaluateAssignment(ctx, phase, remaining, assignment, options).status(),
        PlanExhaustiveGlobal(ctx, phase, options).status(),
    };
    for (const Status& status : statuses) {
      EXPECT_TRUE(status.IsInvalidArgument()) << name << "-> " << status.ToString();
      EXPECT_NE(status.message().find(name), std::string::npos) << status.ToString();
    }
  }
}

}  // namespace
}  // namespace pse

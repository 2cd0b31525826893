// Grounding the planner's data-movement estimates: EstimateOperatorIo
// (what GAA's objective uses) must track the MigrationExecutor's actually
// measured I/O, and EvaluateAssignment must equal the hand-computed sum of
// per-phase workload costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/migration_planner.h"
#include "tests/core/core_test_util.h"

namespace pse {
namespace {

using coretest::Bookstore;

class MigrationIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(20, 60, 150);
    stats_ = data_->ComputeStats();
    auto opset = ComputeOperatorSet(bs_->source, bs_->object);
    ASSERT_TRUE(opset.ok());
    opset_ = std::make_unique<OperatorSet>(std::move(*opset));
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  LogicalStats stats_;
  std::unique_ptr<OperatorSet> opset_;
};

TEST_F(MigrationIoTest, EstimatesTrackActualMovement) {
  Database db(128);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  PhysicalSchema current = bs_->source;
  MigrationExecutor executor(&db, data_.get());
  auto topo = opset_->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int i : *topo) {
    const MigrationOperator& op = opset_->ops[static_cast<size_t>(i)];
    auto estimated = EstimateOperatorIo(op, current, stats_);
    ASSERT_TRUE(estimated.ok());
    auto actual = executor.Apply(op, &current);
    ASSERT_TRUE(actual.ok()) << op.ToString(bs_->logical);
    // Within 4x either way: the estimate is a planning signal, not an
    // accounting identity (index builds and flush amplification are real).
    EXPECT_GT(*estimated, static_cast<double>(*actual) / 4.0) << op.ToString(bs_->logical);
    EXPECT_LT(*estimated, static_cast<double>(*actual) * 4.0 + 16.0)
        << op.ToString(bs_->logical) << " est=" << *estimated << " act=" << *actual;
  }
}

TEST_F(MigrationIoTest, EvaluateAssignmentEqualsManualSum) {
  // Assignment: everything deferred to completion => every phase is costed
  // on the unchanged source schema.
  std::vector<std::vector<double>> freqs{{5, 1, 2}, {3, 3, 2}, {1, 5, 2}};
  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery q1;
    q1.anchor = bs_->author;
    q1.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(q1), true);
    LogicalQuery q2;
    q2.anchor = bs_->book;
    q2.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    q2.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "x");
    queries.emplace_back(std::move(q2), false);
    LogicalQuery q3;
    q3.anchor = bs_->user;
    q3.select.emplace_back(Col("u_name"), AggFunc::kNone, "u");
    queries.emplace_back(std::move(q3), true);
  }
  std::vector<LogicalStats> phase_stats{stats_};
  MigrationContext ctx;
  ctx.current = &bs_->source;
  ctx.object = &bs_->object;
  ctx.opset = opset_.get();
  ctx.applied.assign(opset_->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &queries;

  std::vector<int> remaining = ctx.RemainingOps();
  std::vector<int> defer_all(remaining.size(), 3);  // offset 3 == completion
  GaaOptions options;  // no migration cost
  auto total = EvaluateAssignment(ctx, 0, remaining, defer_all, options);
  ASSERT_TRUE(total.ok()) << total.status().ToString();

  CostOptions pricing;
  pricing.fallback_schema = &bs_->object;
  double manual = 0;
  for (size_t p = 0; p < 3; ++p) {
    auto c = EstimateWorkloadCost(bs_->source, stats_, queries, freqs[p], pricing);
    ASSERT_TRUE(c.ok());
    manual += *c;
  }
  EXPECT_NEAR(*total, manual, 1e-6);
}

// Assignments no plan can have are refused before any costing, with and
// without a phase-schema memo: a wrong arity, a gene outside [0, phases]
// (which would never apply its operator), and a prerequisite assigned after
// its dependent (which would apply the dependent first and price a schema no
// dependency-respecting plan reaches).
TEST_F(MigrationIoTest, MalformedAssignmentsRejected) {
  const int phases = 3;
  std::vector<std::vector<double>> freqs(phases, std::vector<double>{1});
  std::vector<WorkloadQuery> queries;
  LogicalQuery q;
  q.anchor = bs_->user;
  q.select.emplace_back(Col("u_name"), AggFunc::kNone, "u");
  queries.emplace_back(std::move(q), true);
  std::vector<LogicalStats> phase_stats{stats_};
  MigrationContext ctx;
  ctx.current = &bs_->source;
  ctx.object = &bs_->object;
  ctx.opset = opset_.get();
  ctx.applied.assign(opset_->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &queries;
  const std::vector<int> remaining = ctx.RemainingOps();
  PhaseSchemaMemo memo(ctx);
  auto expect_rejected = [&](const std::vector<int>& assignment, const std::string& names) {
    for (PhaseSchemaMemo* m : {static_cast<PhaseSchemaMemo*>(nullptr), &memo}) {
      auto cost = EvaluateAssignment(ctx, 0, remaining, assignment, GaaOptions{}, nullptr, m);
      EXPECT_TRUE(cost.status().IsInvalidArgument()) << names << " -> " << cost.status().ToString();
      EXPECT_NE(cost.status().message().find(names), std::string::npos)
          << cost.status().ToString();
    }
  };

  expect_rejected(std::vector<int>(remaining.size() - 1, 0), "arity");
  expect_rejected(std::vector<int>(remaining.size() + 1, 0), "arity");
  for (size_t i = 0; i < remaining.size(); ++i) {
    for (int gene : {phases + 1, 99, -1}) {
      std::vector<int> assignment(remaining.size(), phases);  // all deferred
      assignment[i] = gene;
      expect_rejected(assignment, "operator " + std::to_string(remaining[i]) + " gene " +
                                      std::to_string(gene));
    }
  }
  // Some remaining operator depends on another: assign the prerequisite to
  // offset 2 and its dependent to offset 0.
  bool found_dependency = false;
  for (size_t i = 0; i < remaining.size() && !found_dependency; ++i) {
    for (size_t j = 0; j < remaining.size() && !found_dependency; ++j) {
      const std::vector<int>& deps = opset_->deps[static_cast<size_t>(remaining[i])];
      if (std::find(deps.begin(), deps.end(), remaining[j]) == deps.end()) continue;
      found_dependency = true;
      std::vector<int> assignment(remaining.size(), phases);
      assignment[j] = 2;
      assignment[i] = 0;
      expect_rejected(assignment, "operator " + std::to_string(remaining[i]) + " gene 0");
    }
  }
  EXPECT_TRUE(found_dependency);
  EXPECT_EQ(memo.size(), 0u);  // refused before any schema was built
  EXPECT_TRUE(memo.PhaseCost(memo.current(), phases, nullptr).status().IsInvalidArgument());

  // A dependency-respecting assignment in range is priced.
  EXPECT_TRUE(EvaluateAssignment(ctx, 0, remaining, std::vector<int>(remaining.size(), 0),
                                 GaaOptions{}, nullptr, &memo)
                  .ok());
}

TEST_F(MigrationIoTest, MigrationCostTermAddsDeferredMovement) {
  std::vector<std::vector<double>> freqs{{1, 1, 1}};
  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery q1;
    q1.anchor = bs_->author;
    q1.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(q1), true);
    LogicalQuery q2;
    q2.anchor = bs_->book;
    q2.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    queries.emplace_back(std::move(q2), false);
    LogicalQuery q3;
    q3.anchor = bs_->user;
    q3.select.emplace_back(Col("u_name"), AggFunc::kNone, "u");
    queries.emplace_back(std::move(q3), true);
  }
  std::vector<LogicalStats> phase_stats{stats_};
  MigrationContext ctx;
  ctx.current = &bs_->source;
  ctx.object = &bs_->object;
  ctx.opset = opset_.get();
  ctx.applied.assign(opset_->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &queries;
  std::vector<int> remaining = ctx.RemainingOps();
  std::vector<int> defer_all(remaining.size(), 1);
  GaaOptions without;
  GaaOptions with;
  with.include_migration_cost = true;
  auto base = EvaluateAssignment(ctx, 0, remaining, defer_all, without);
  auto inclusive = EvaluateAssignment(ctx, 0, remaining, defer_all, with);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(inclusive.ok());
  EXPECT_GT(*inclusive, *base);  // movement of every deferred op is charged
}

}  // namespace
}  // namespace pse

#include "core/schema_advisor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/mapping.h"

#include "tests/core/core_test_util.h"

namespace pse {
namespace {

using coretest::Bookstore;

class SchemaAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    auto data = bs_->MakeData(10, 40, 80);
    stats_ = data->ComputeStats();

    // Selective one-stop lookup that loves the denormalized glossary.
    LogicalQuery glossary_point;
    glossary_point.anchor = bs_->book;
    glossary_point.name = "point";
    glossary_point.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    glossary_point.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    glossary_point.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "x");
    glossary_point.filters.push_back(
        Cmp(CompareOp::kEq, Col("b_id"), Const(Value::Int(7))));
    queries_.emplace_back(std::move(glossary_point), false);

    // Author scan that loves the normalized author table.
    LogicalQuery author_scan;
    author_scan.anchor = bs_->author;
    author_scan.name = "scan";
    author_scan.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    author_scan.select.emplace_back(Col("a_bio"), AggFunc::kNone, "b");
    queries_.emplace_back(std::move(author_scan), true);
  }

  std::unique_ptr<Bookstore> bs_;
  LogicalStats stats_;
  std::vector<WorkloadQuery> queries_;
};

TEST_F(SchemaAdvisorTest, CreatesMissingAttributes) {
  // The seed (source) lacks b_abstract; the advisor must create it so the
  // point query becomes servable at all.
  auto result = AdviseSchema(bs_->source, stats_, queries_, {10, 10});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->schema.TableOfNonKeyAttr(bs_->b_abstract).ok());
  EXPECT_TRUE(result->schema.Validate().ok());
}

TEST_F(SchemaAdvisorTest, CreatesRejectedWhenDisallowed) {
  AdvisorOptions options;
  options.allow_creates = false;
  auto result = AdviseSchema(bs_->source, stats_, queries_, {10, 10}, options);
  EXPECT_FALSE(result.ok());
}

TEST_F(SchemaAdvisorTest, NewHeavyWorkloadGetsDenormalizedDesign) {
  // Point query dominates: the advisor should fold author (and abstract)
  // into the book table so the lookup is one-stop.
  auto result = AdviseSchema(bs_->source, stats_, queries_, {100, 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->final_cost, result->initial_cost);
  auto a_name_table = result->schema.TableOfNonKeyAttr(bs_->a_name);
  ASSERT_TRUE(a_name_table.ok());
  EXPECT_EQ(result->schema.tables()[*a_name_table].anchor, bs_->book)
      << result->schema.ToString();
}

TEST_F(SchemaAdvisorTest, ScanHeavyWorkloadKeepsAuthorNormalized) {
  auto result = AdviseSchema(bs_->source, stats_, queries_, {1, 100});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto a_name_table = result->schema.TableOfNonKeyAttr(bs_->a_name);
  ASSERT_TRUE(a_name_table.ok());
  EXPECT_EQ(result->schema.tables()[*a_name_table].anchor, bs_->author)
      << result->schema.ToString();
}

TEST_F(SchemaAdvisorTest, StepsNeverIncreaseCost) {
  auto result = AdviseSchema(bs_->source, stats_, queries_, {50, 50});
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    if (step.op.kind == OperatorKind::kCreateTable) continue;  // enabling move
    EXPECT_LT(step.cost_after, step.cost_before)
        << step.op.ToString(bs_->logical);
  }
  EXPECT_LE(result->final_cost, result->initial_cost);
}

TEST_F(SchemaAdvisorTest, RecommendationIsReachableByMigration) {
  // The advisor's output composes with the migration machinery: an operator
  // set from the seed to the recommendation must exist and replay cleanly.
  auto result = AdviseSchema(bs_->source, stats_, queries_, {100, 1});
  ASSERT_TRUE(result.ok());
  auto opset = ComputeOperatorSet(bs_->source, result->schema);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  PhysicalSchema check = bs_->source;
  auto order = opset->TopologicalOrder();
  ASSERT_TRUE(order.ok());
  for (int i : *order) {
    ASSERT_TRUE(ApplyOperator(opset->ops[static_cast<size_t>(i)], &check).ok());
  }
  EXPECT_TRUE(check.EquivalentTo(result->schema));
}

TEST_F(SchemaAdvisorTest, IdempotentOnitsOwnOutput) {
  auto first = AdviseSchema(bs_->source, stats_, queries_, {100, 1});
  ASSERT_TRUE(first.ok());
  auto second = AdviseSchema(first->schema, stats_, queries_, {100, 1});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->schema.EquivalentTo(first->schema));
  EXPECT_NEAR(second->final_cost, first->final_cost, 1e-9);
  EXPECT_TRUE(second->steps.empty());
}

TEST_F(SchemaAdvisorTest, StepLimitRespected) {
  AdvisorOptions options;
  options.max_steps = 1;
  auto result = AdviseSchema(bs_->source, stats_, queries_, {100, 1}, options);
  ASSERT_TRUE(result.ok());
  // One create (enabling) + at most one hill-climbing step.
  EXPECT_LE(result->steps.size(), 2u);
}

}  // namespace
}  // namespace pse

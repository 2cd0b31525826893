// Tests for the physical migration executor and the three-situation
// simulation harness.
#include <gtest/gtest.h>

#include "core/migration_executor.h"
#include "core/rewriter.h"
#include "core/simulation.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tests/core/core_test_util.h"

namespace pse {
namespace {

using coretest::Bookstore;

class MigrationExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(5, 8, 15);
    db_ = std::make_unique<Database>(512);
    ASSERT_TRUE(data_->Materialize(db_.get(), bs_->source).ok());
    schema_ = bs_->source;
    executor_ = std::make_unique<MigrationExecutor>(db_.get(), data_.get());
  }

  /// Runs a logical query on the current schema/db; returns sorted rows.
  std::vector<Row> Run(const LogicalQuery& q) {
    auto bound = RewriteQuery(q, schema_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    DatabaseCatalogView view(db_.get());
    auto plan = PlanQuery(*bound, view);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto rows = ExecutePlan(**plan, db_.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<Row> out = rows.ok() ? *rows : std::vector<Row>{};
    std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
      for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return false;
    });
    return out;
  }

  LogicalQuery BookAuthorQuery() {
    LogicalQuery q;
    q.anchor = bs_->book;
    q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    q.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    return q;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::unique_ptr<Database> db_;
  PhysicalSchema schema_;
  std::unique_ptr<MigrationExecutor> executor_;
};

TEST_F(MigrationExecutorTest, SplitMovesData) {
  std::vector<Row> before = Run(
      [&] {
        LogicalQuery q;
        q.anchor = bs_->user;
        q.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
        q.select.emplace_back(Col("u_addr"), AggFunc::kNone, "a");
        return q;
      }());
  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 100;
  op.split_moved = {bs_->u_addr};
  op.split_moved_anchor = bs_->user;
  auto io = executor_->Apply(op, &schema_);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_GT(*io, 0u);
  EXPECT_FALSE(db_->HasTable("user"));  // old table dropped
  std::vector<Row> after = Run([&] {
    LogicalQuery q;
    q.anchor = bs_->user;
    q.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    q.select.emplace_back(Col("u_addr"), AggFunc::kNone, "a");
    return q;
  }());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_TRUE(RowEq()(before[i], after[i]));
}

TEST_F(MigrationExecutorTest, CombineMovesData) {
  std::vector<Row> before = Run(BookAuthorQuery());
  MigrationOperator op;
  op.kind = OperatorKind::kCombineTable;
  op.id = 101;
  op.combine_left_rep = bs_->b_title;
  op.combine_right_rep = bs_->a_name;
  auto io = executor_->Apply(op, &schema_);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_FALSE(db_->HasTable("book"));
  EXPECT_FALSE(db_->HasTable("author"));
  std::vector<Row> after = Run(BookAuthorQuery());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_TRUE(RowEq()(before[i], after[i]));
}

TEST_F(MigrationExecutorTest, CreateMaterializesNewAttrs) {
  MigrationOperator op;
  op.kind = OperatorKind::kCreateTable;
  op.id = 102;
  op.create_entity = bs_->book;
  op.create_attrs = {bs_->b_abstract};
  auto io = executor_->Apply(op, &schema_);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  LogicalQuery q;
  q.anchor = bs_->book;
  q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "x");
  std::vector<Row> rows = Run(q);
  EXPECT_EQ(rows.size(), data_->NumRows(bs_->book));
  EXPECT_NE(rows[0][0].AsString().find("abstract"), std::string::npos);
}

TEST_F(MigrationExecutorTest, FullMigrationPreservesEveryQuery) {
  auto opset = ComputeOperatorSet(bs_->source, bs_->object);
  ASSERT_TRUE(opset.ok());
  std::vector<Row> before = Run(BookAuthorQuery());
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int i : *topo) {
    auto io = executor_->Apply(opset->ops[static_cast<size_t>(i)], &schema_);
    ASSERT_TRUE(io.ok()) << io.status().ToString();
  }
  EXPECT_TRUE(schema_.EquivalentTo(bs_->object));
  std::vector<Row> after = Run(BookAuthorQuery());
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_TRUE(RowEq()(before[i], after[i]));
}

// --- simulation harness ---

class SimulationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(8, 25, 60);

    // Old-style and new-style workload members.
    LogicalQuery old_author;
    old_author.anchor = bs_->author;
    old_author.select.emplace_back(Col("a_name"), AggFunc::kNone, "a_name");
    old_author.select.emplace_back(Col("a_bio"), AggFunc::kNone, "a_bio");
    old_author.name = "O1";
    queries_.emplace_back(std::move(old_author), true);

    LogicalQuery old_user;
    old_user.anchor = bs_->user;
    old_user.select.emplace_back(Col("u_name"), AggFunc::kNone, "u_name");
    old_user.select.emplace_back(Col("u_bday"), AggFunc::kNone, "u_bday");
    old_user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "u_addr");
    old_user.name = "O2";
    queries_.emplace_back(std::move(old_user), true);

    // New queries are SELECTIVE and touch the new attribute: index lookups
    // on the one-stop denormalized glossary make the object schema their
    // genuine optimum (full-scan queries would favor the narrower
    // normalized fragments instead -- see DESIGN.md).
    LogicalQuery new_glossary;
    new_glossary.anchor = bs_->book;
    new_glossary.select.emplace_back(Col("b_title"), AggFunc::kNone, "b_title");
    new_glossary.select.emplace_back(Col("a_name"), AggFunc::kNone, "a_name");
    new_glossary.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "b_abstract");
    new_glossary.filters.push_back(
        Cmp(CompareOp::kLt, Col("b_id"), Const(Value::Int(25))));
    new_glossary.name = "N1";
    queries_.emplace_back(std::move(new_glossary), false);

    LogicalQuery new_abstract;
    new_abstract.anchor = bs_->book;
    new_abstract.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "b_abstract");
    new_abstract.select.emplace_back(Col("a_bio"), AggFunc::kNone, "a_bio");
    new_abstract.select.emplace_back(Col("b_title"), AggFunc::kNone, "b_title");
    new_abstract.filters.push_back(
        Cmp(CompareOp::kEq, Col("b_id"), Const(Value::Int(7))));
    new_abstract.name = "N2";
    queries_.emplace_back(std::move(new_abstract), false);

    // Old workload fades, new workload rises, over 3 phases.
    freqs_ = {{40, 30, 5, 2}, {20, 15, 20, 10}, {5, 3, 40, 30}};
  }

  SimulationConfig Config(PlannerKind planner) {
    SimulationConfig config;
    config.planner = planner;
    config.buffer_pool_pages = 128;  // small: make I/O visible
    config.gaa.ga.population_size = 20;
    config.gaa.ga.generations = 25;
    return config;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::vector<WorkloadQuery> queries_;
  std::vector<std::vector<double>> freqs_;
};

TEST_F(SimulationTest, ProSchemaBetweenBounds) {
  MigrationSimulation sim(&bs_->source, &bs_->object, &queries_, freqs_, data_.get(),
                          Config(PlannerKind::kLaa));
  auto opt = sim.Run(Situation::kOptSchema);
  auto pro = sim.Run(Situation::kProSchema);
  auto obj = sim.Run(Situation::kObjSchema);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_EQ(opt->phases.size(), 3u);
  // The paper's bounds: Opt <= Pro <= Obj overall (small tolerance — these
  // are measured I/O counts, not estimates).
  EXPECT_LE(opt->OverallCost(), pro->OverallCost() * 1.05);
  EXPECT_LE(pro->OverallCost(), obj->OverallCost() * 1.05);
}

TEST_F(SimulationTest, ProReachesObjectAndMovesData) {
  MigrationSimulation sim(&bs_->source, &bs_->object, &queries_, freqs_, data_.get(),
                          Config(PlannerKind::kLaa));
  auto pro = sim.Run(Situation::kProSchema);
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  // All operators applied somewhere (phases or the completion step).
  size_t ops_in_phases = 0;
  for (const auto& p : pro->phases) ops_in_phases += p.ops_applied.size();
  EXPECT_GT(pro->TotalMigrationIo(), 0.0);
  EXPECT_GT(ops_in_phases + (pro->final_migration_io > 0 ? 1 : 0), 0u);
}

TEST_F(SimulationTest, GaaRunsEndToEnd) {
  MigrationSimulation sim(&bs_->source, &bs_->object, &queries_, freqs_, data_.get(),
                          Config(PlannerKind::kGaa));
  auto pro = sim.Run(Situation::kProSchema);
  ASSERT_TRUE(pro.ok()) << pro.status().ToString();
  EXPECT_EQ(pro->phases.size(), 3u);
  EXPECT_GT(sim.last_planner_evaluations(), 0u);
}

TEST_F(SimulationTest, EstimateOnlyModeIsConsistent) {
  SimulationConfig config = Config(PlannerKind::kLaa);
  config.measure_actual = false;
  MigrationSimulation sim(&bs_->source, &bs_->object, &queries_, freqs_, data_.get(), config);
  auto opt = sim.Run(Situation::kOptSchema);
  auto pro = sim.Run(Situation::kProSchema);
  auto obj = sim.Run(Situation::kObjSchema);
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(pro.ok());
  ASSERT_TRUE(obj.ok());
  EXPECT_LE(opt->OverallCost(), pro->OverallCost() * 1.05);
  EXPECT_LE(pro->OverallCost(), obj->OverallCost() * 1.05);
}

// Opt-Schema runs an old query on the source schema. One that reads
// b_abstract, which only the object schema stores, is unservable there and
// is priced at the GAA's unservable penalty times its object-schema
// estimate.
TEST_F(SimulationTest, UnservableQueriesCostTheGaaPenalty) {
  LogicalQuery abstract;
  abstract.anchor = bs_->book;
  abstract.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "b_abstract");
  abstract.name = "O3";
  std::vector<WorkloadQuery> queries;
  queries.emplace_back(std::move(abstract), /*is_old=*/true);
  std::vector<double> costs;
  for (double penalty : {3.0, 6.0}) {
    SimulationConfig config = Config(PlannerKind::kLaa);
    config.gaa.unservable_penalty = penalty;
    MigrationSimulation sim(&bs_->source, &bs_->object, &queries, {{1.0}}, data_.get(), config);
    auto opt = sim.Run(Situation::kOptSchema);
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();
    costs.push_back(opt->OverallCost());
  }
  EXPECT_GT(costs[0], 0.0);
  EXPECT_DOUBLE_EQ(costs[1], 2 * costs[0]);
}

TEST_F(SimulationTest, PhaseCostsArePositive) {
  MigrationSimulation sim(&bs_->source, &bs_->object, &queries_, freqs_, data_.get(),
                          Config(PlannerKind::kLaa));
  auto obj = sim.Run(Situation::kObjSchema);
  ASSERT_TRUE(obj.ok());
  for (const auto& p : obj->phases) EXPECT_GT(p.query_cost, 0.0);
}

}  // namespace
}  // namespace pse

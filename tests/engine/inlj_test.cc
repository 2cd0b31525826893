// Index-nested-loop join: plan selection, correctness vs hash join.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/catalog_view.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "sql/session.h"
#include "tests/common/test_db_builder.h"
#include "tests/engine/engine_test_util.h"

namespace pse {
namespace {

using testutil::FindPlanNode;

class InljTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::MakeBookstore(1024);
    // INLJ pays when the inner table is large AND the per-probe fanout is
    // small. Grow the catalog to 2000 books and the sale table to ~20k rows
    // (~100 pages) with sale s referencing book s % 2000 (fanout ~10).
    for (int64_t b = 100; b < 2000; ++b) {
      ASSERT_TRUE(db_->Insert("book", {Value::Int(b), Value::Varchar("title-" + std::to_string(b)),
                                       Value::Int(b % 10), Value::Double(5.0 + (b % 40))})
                      .ok());
    }
    for (int64_t s = 300; s < 20000; ++s) {
      ASSERT_TRUE(
          db_->Insert("sale", {Value::Int(s), Value::Int(s % 2000), Value::Int(1 + s % 5)}).ok());
    }
    // Secondary index on the FK so the planner can probe it.
    ASSERT_TRUE(db_->CreateIndex("sale", "book_id").ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
    view_ = std::make_unique<DatabaseCatalogView>(db_.get());
  }

  /// Point query on book joined to its sales: tiny outer, big indexed inner.
  BoundQuery PointJoin() {
    BoundQuery q;
    TableAccess book("book", {"book_id", "title"});
    book.filters.push_back(Eq("book_id", Value::Int(42)));
    q.tables.push_back(std::move(book));
    q.tables.push_back(TableAccess("sale", {"sale_id", "book_id"}));
    q.joins.push_back(EquiJoin{0, 1, "book_id", "book_id"});
    q.select_items.emplace_back(Col("sale.sale_id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("book.title"), AggFunc::kNone, "title");
    return q;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<DatabaseCatalogView> view_;
};

TEST_F(InljTest, PlannerChoosesInljForSelectiveOuter) {
  auto plan = PlanQuery(PointJoin(), *view_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PlanNode* inlj = FindPlanNode(plan->get(), PlanNode::Kind::kIndexNLJoin);
  ASSERT_NE(inlj, nullptr) << (*plan)->ToString();
  EXPECT_EQ(inlj->table, "sale");
  EXPECT_EQ(inlj->index_column, "book_id");
}

TEST_F(InljTest, PlannerKeepsHashJoinForFullScanOuter) {
  // No filter: the outer produces every sale row; probing per row would
  // cost more than scanning the inner.
  BoundQuery q;
  q.tables.push_back(TableAccess("sale", {"sale_id", "book_id"}));
  q.tables.push_back(TableAccess("book", {"book_id", "title"}));
  q.joins.push_back(EquiJoin{0, 1, "book_id", "book_id"});
  q.select_items.emplace_back(Col("sale.sale_id"), AggFunc::kNone, "id");
  auto plan = PlanQuery(q, *view_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(FindPlanNode(plan->get(), PlanNode::Kind::kIndexNLJoin), nullptr);
  EXPECT_NE(FindPlanNode(plan->get(), PlanNode::Kind::kHashJoin), nullptr);
}

TEST_F(InljTest, InljAndHashJoinAgree) {
  // Ground truth for book 42: the 3 original sales (42, 142, 242 with
  // s % 100 == 42) plus the 9 added ones with s % 2000 == 42.
  auto plan = PlanQuery(PointJoin(), *view_);
  ASSERT_TRUE(plan.ok());
  auto rows = ExecutePlan(**plan, db_.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 12u);
  for (const auto& r : *rows) {
    EXPECT_TRUE(r[0].AsInt() % 100 == 42 || r[0].AsInt() % 2000 == 42);
    EXPECT_EQ(r[1].AsString(), "title-42");
  }
}

TEST_F(InljTest, InnerFilterApplies) {
  BoundQuery q = PointJoin();
  q.tables[1].filters.push_back(Cmp(CompareOp::kLt, Col("sale_id"), Const(Value::Int(1000))));
  auto plan = PlanQuery(q, *view_);
  ASSERT_TRUE(plan.ok());
  auto rows = ExecutePlan(**plan, db_.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // sales 42, 142, 242 (added ones are >= 2042)
}

TEST_F(InljTest, NullJoinKeysProduceNoMatches) {
  // A book with NULL author joins nothing in either join flavor.
  ASSERT_TRUE(db_->Insert("book", {Value::Int(5000), Value::Varchar("orphan"),
                                   Value::Null(TypeId::kInt64), Value::Double(1.0)})
                  .ok());
  ASSERT_TRUE(db_->AnalyzeAll().ok());
  BoundQuery q;
  TableAccess book("book", {"book_id", "author_id"});
  book.filters.push_back(Eq("book_id", Value::Int(5000)));
  q.tables.push_back(std::move(book));
  q.tables.push_back(TableAccess("author", {"author_id", "name"}));
  q.joins.push_back(EquiJoin{0, 1, "author_id", "author_id"});
  q.select_items.emplace_back(Col("author.name"), AggFunc::kNone, "name");
  auto plan = PlanQuery(q, *view_);
  ASSERT_TRUE(plan.ok());
  auto rows = ExecutePlan(**plan, db_.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// A DOUBLE join key equals the BIGINT of the same value (Value::Compare),
// so the answer must not depend on which join the planner picks: the hash
// join matches a.x = 10.0 with b.id = 10, and so must the index probe.
TEST(InljKeyTypes, IntegralDoubleKeysJoinAlikeUnderEitherPlan) {
  auto run = [](int64_t b_rows, PlanNode::Kind want_kind) -> std::vector<Row> {
    Database db(256);
    Session session(&db);
    auto must = [&session](const std::string& sql) {
      auto r = session.Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      return r.ok() ? std::move(r->rows) : std::vector<Row>{};
    };
    must("CREATE TABLE a (id BIGINT NOT NULL, x DOUBLE, PRIMARY KEY (id))");
    must("CREATE TABLE b (id BIGINT NOT NULL, pad VARCHAR(200), PRIMARY KEY (id))");
    for (int i = 0; i < 3; ++i) {
      must("INSERT INTO a VALUES (" + std::to_string(i) + ", " + std::to_string(10 * i) +
           ".0)");
    }
    // A fractional key and a NULL key equal no BIGINT.
    must("INSERT INTO a VALUES (3, 10.5)");
    must("INSERT INTO a VALUES (4, NULL)");
    const std::string pad(150, 'p');
    for (int64_t i = 0; i < b_rows; ++i) {
      must("INSERT INTO b VALUES (" + std::to_string(i) + ", '" + pad + "')");
    }
    must("ANALYZE");
    const std::string sql = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.id";
    auto bound = session.Bind(sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (!bound.ok()) return {};
    auto plan = PlanQuery(*bound, session.catalog_view());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return {};
    EXPECT_NE(FindPlanNode(plan->get(), want_kind), nullptr) << (*plan)->ToString();
    return testutil::SortRows(must(sql));
  };
  const std::vector<Row> want = {{Value::Int(0), Value::Int(0)},
                                 {Value::Int(1), Value::Int(10)},
                                 {Value::Int(2), Value::Int(20)}};
  std::vector<Row> hash = run(30, PlanNode::Kind::kHashJoin);
  std::vector<Row> inlj = run(3000, PlanNode::Kind::kIndexNLJoin);
  EXPECT_TRUE(testutil::SameRows(hash, want))
      << hash.size() << " rows under the hash join";
  EXPECT_TRUE(testutil::SameRows(inlj, want))
      << inlj.size() << " rows under the index join";
}

TEST_F(InljTest, CostModelCoversInlj) {
  auto plan = PlanQuery(PointJoin(), *view_);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(FindPlanNode(plan->get(), PlanNode::Kind::kIndexNLJoin), nullptr);
  CostModel model(view_.get());
  auto est = model.Estimate(**plan);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->io_pages, 0.0);
  EXPECT_NEAR(est->rows, 10.0, 8.0);
  // The whole point: the INLJ plan must be priced well below a full scan of
  // the sale table.
  auto sale_stats = view_->GetStats("sale");
  ASSERT_TRUE(sale_stats.ok());
  EXPECT_LT(est->io_pages, CostModel::TablePages(**sale_stats));
}

TEST_F(InljTest, ExplainShowsJoinKind) {
  auto plan = PlanQuery(PointJoin(), *view_);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE((*plan)->ToString().find("IndexNLJoin"), std::string::npos);
}

}  // namespace
}  // namespace pse

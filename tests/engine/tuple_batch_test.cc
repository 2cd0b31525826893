// TupleBatch and vector-evaluator unit tests: selection-vector edge cases
// (empty batches, all-filtered batches), NULL handling in the vector
// expression evaluators (seeded property test against the scalar Expr
// evaluator), and a batch scan spanning the migration copy frontier
// mid-operator (via MigrationOptions::on_batch).
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "core/migration_executor.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/expr.h"
#include "engine/expr_vec.h"
#include "engine/planner.h"
#include "engine/tuple_batch.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::MakeInstance;
using testutil::RandomInstance;
using testutil::SameRows;
using testutil::SortRows;
using testutil::TableRows;

// --- TupleBatch mechanics ---

TEST(TupleBatchTest, EmptyBatch) {
  TupleBatch b;
  EXPECT_EQ(b.num_cols(), 0u);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());

  b.Reset(3);
  EXPECT_EQ(b.num_cols(), 3u);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_TRUE(b.empty());
}

TEST(TupleBatchTest, AppendAndSelect) {
  TupleBatch b;
  b.Reset(2);
  for (int64_t i = 0; i < 5; ++i) {
    b.AppendRow(Row{Value::Int(i), Value::Varchar("r" + std::to_string(i))});
  }
  EXPECT_EQ(b.num_rows(), 5u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.At(0, 3).AsInt(), 3);
  EXPECT_EQ(b.SelIndex(3), 3u);

  b.SetSel({1, 4});
  EXPECT_TRUE(b.has_sel());
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.num_rows(), 5u);
  EXPECT_EQ(b.SelIndex(0), 1u);
  EXPECT_EQ(b.SelIndex(1), 4u);
  EXPECT_EQ(b.At(0, b.SelIndex(1)).AsInt(), 4);
  EXPECT_EQ(b.At(1, b.SelIndex(1)).AsString(), "r4");

  b.Reset(2);  // drops the selection
  EXPECT_FALSE(b.has_sel());
  EXPECT_TRUE(b.empty());
}

TEST(TupleBatchTest, AllFilteredBatch) {
  TupleBatch b;
  b.Reset(1);
  for (int64_t i = 0; i < 4; ++i) b.AppendRow(Row{Value::Int(i)});
  b.SetSel({});
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_rows(), 4u);  // physical rows survive the selection
}

TEST(TupleBatchTest, NullValuesRoundTrip) {
  TupleBatch b;
  b.Reset(2);
  b.AppendRow(Row{Value::Null(TypeId::kInt64), Value::Varchar("x")});
  b.AppendRow(Row{Value::Int(7), Value::Null(TypeId::kVarchar)});
  EXPECT_TRUE(b.At(0, 0).is_null());
  EXPECT_EQ(b.At(1, 0).AsString(), "x");
  Row moved;
  b.MoveRowOut(1, &moved);
  EXPECT_EQ(moved[0].AsInt(), 7);
  EXPECT_TRUE(moved[1].is_null());
}

// --- vector evaluator vs scalar evaluator ---

TEST(ExprVecTest, EvalSelectOnEmptyBatch) {
  ExprPtr e = Eq("c0", Value::Int(1));
  ASSERT_TRUE(e->Resolve([](const std::string&) -> Result<size_t> { return size_t{0}; }).ok());
  auto vec = ExprVecExecutor::Create(*e);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  TupleBatch b;
  b.Reset(1);
  std::vector<uint32_t> sel{99};
  ASSERT_TRUE(vec->EvalSelect(b, &sel).ok());
  EXPECT_TRUE(sel.empty());
}

TEST(ExprVecTest, NonBooleanPredicateRejected) {
  // ArithExpr result is numeric; EvalSelect must reject it the same way
  // EvalPredicate does.
  ExprPtr e = std::make_unique<ArithExpr>(ArithOp::kAdd, Col("c0"), Const(Value::Int(1)));
  ASSERT_TRUE(e->Resolve([](const std::string&) -> Result<size_t> { return size_t{0}; }).ok());
  auto vec = ExprVecExecutor::Create(*e);
  ASSERT_TRUE(vec.ok());
  TupleBatch b;
  b.Reset(1);
  b.AppendRow(Row{Value::Int(2)});
  std::vector<uint32_t> sel;
  Status s = vec->EvalSelect(b, &sel);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

/// Random expression over columns id/a/b/s mixing comparisons, three-valued
/// logic, arithmetic (including division by zero), LIKE, IS NULL, and IN —
/// the full surface both evaluators implement.
ExprPtr RandomExpr(Rng* rng, int depth = 0) {
  double roll = rng->UniformDouble();
  const char* int_cols[] = {"id", "a", "b"};
  if (depth < 3 && roll < 0.25) {
    LogicOp op = rng->Bernoulli(0.5) ? LogicOp::kAnd : LogicOp::kOr;
    return std::make_unique<LogicExpr>(op, RandomExpr(rng, depth + 1),
                                       RandomExpr(rng, depth + 1));
  }
  if (depth < 3 && roll < 0.35) {
    return std::make_unique<NotExpr>(RandomExpr(rng, depth + 1));
  }
  if (roll < 0.5) {
    // Comparison over arithmetic: exercises NULL propagation and
    // div-by-zero => NULL inside the compare.
    ArithOp aops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv};
    ExprPtr lhs = std::make_unique<ArithExpr>(
        aops[rng->Index(4)], Col(int_cols[rng->Index(3)]),
        rng->Bernoulli(0.5) ? Col(int_cols[rng->Index(3)])
                            : Const(Value::Int(rng->UniformInt(-3, 3))));
    CompareOp cops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                        CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    return Cmp(cops[rng->Index(6)], std::move(lhs),
               Const(Value::Int(rng->UniformInt(-20, 20))));
  }
  if (roll < 0.65) {
    return std::make_unique<IsNullExpr>(Col(int_cols[rng->Index(3)]), rng->Bernoulli(0.5));
  }
  if (roll < 0.8) {
    return std::make_unique<LikeExpr>(Col("s"), rng->Bernoulli(0.5) ? "a%" : "%b%",
                                      rng->Bernoulli(0.3));
  }
  std::vector<Value> in_vals;
  for (int i = 0; i < 3; ++i) in_vals.push_back(Value::Int(rng->UniformInt(-10, 10)));
  if (rng->Bernoulli(0.2)) in_vals.push_back(Value::Null(TypeId::kInt64));
  return std::make_unique<InListExpr>(Col(int_cols[rng->Index(3)]), std::move(in_vals),
                                      rng->Bernoulli(0.3));
}

class VectorScalarProperty : public ::testing::TestWithParam<uint64_t> {};

// Seeded property test: for random expressions over random NULL-bearing
// rows, the compiled vector evaluator must agree with the scalar Expr
// evaluator value for value (including the NULL's type), and EvalSelect
// must keep exactly the rows EvalPredicate keeps.
TEST_P(VectorScalarProperty, VectorEvaluatorMatchesScalar) {
  Rng rng(GetParam());
  RandomInstance inst = MakeInstance(&rng, 200);

  // Load the raw rows into one batch, with a random selection vector so
  // dead rows are present (their lanes must not disturb live lanes).
  TupleBatch batch;
  batch.Reset(4, inst.rows.size());
  for (const Row& r : inst.rows) batch.AppendRow(r);
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < inst.rows.size(); ++i) {
    if (rng.Bernoulli(0.8)) live.push_back(i);
  }
  batch.SetSel(live);

  auto resolver = [](const std::string& name) -> Result<size_t> {
    if (name == "id") return size_t{0};
    if (name == "a") return size_t{1};
    if (name == "b") return size_t{2};
    if (name == "s") return size_t{3};
    return Status::BindError("?");
  };

  for (int iter = 0; iter < 60; ++iter) {
    ExprPtr e = RandomExpr(&rng);
    ASSERT_TRUE(e->Resolve(resolver).ok());
    auto vec = ExprVecExecutor::Create(*e);
    ASSERT_TRUE(vec.ok()) << e->ToString() << ": " << vec.status().ToString();

    const std::vector<Value>* got = nullptr;
    ASSERT_TRUE(vec->Eval(batch, &got).ok()) << e->ToString();
    ASSERT_GE(got->size(), batch.num_rows());
    for (size_t i = 0; i < batch.size(); ++i) {
      size_t p = batch.SelIndex(i);
      auto want = e->Eval(inst.rows[p]);
      ASSERT_TRUE(want.ok()) << e->ToString();
      const Value& gv = (*got)[p];
      EXPECT_EQ(gv.is_null(), want->is_null()) << e->ToString() << " row " << p;
      EXPECT_EQ(gv.type(), want->type()) << e->ToString() << " row " << p;
      if (!gv.is_null()) {
        EXPECT_EQ(gv.Compare(*want), 0)
            << e->ToString() << " row " << p << ": " << gv.ToString() << " vs "
            << want->ToString();
      }
    }

    std::vector<uint32_t> sel;
    ASSERT_TRUE(vec->EvalSelect(batch, &sel).ok()) << e->ToString();
    std::vector<uint32_t> want_sel;
    for (size_t i = 0; i < batch.size(); ++i) {
      size_t p = batch.SelIndex(i);
      auto pass = EvalPredicate(*e, inst.rows[p]);
      ASSERT_TRUE(pass.ok()) << e->ToString();
      if (*pass) want_sel.push_back(static_cast<uint32_t>(p));
    }
    EXPECT_EQ(sel, want_sel) << e->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorScalarProperty, ::testing::Values(3, 41, 77, 123));

// --- batch plans against expected rows ---

/// Plans and executes `q`, returning its rows sorted.
std::vector<Row> RunSorted(Database* db, const BoundQuery& q) {
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(q, view);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return {};
  auto rows = ExecutePlan(**plan, db);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  return SortRows(std::move(*rows));
}

TEST(VectorizedEngineTest, EmptyTableScan) {
  Database db(64);
  TableSchema t("t", {Column("id", TypeId::kInt64, 0, false), Column("v", TypeId::kInt64)},
                {"id"});
  ASSERT_TRUE(db.CreateTable(t).ok());
  BoundQuery q;
  q.tables.emplace_back("t", std::vector<std::string>{"id", "v"});
  q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
  EXPECT_TRUE(RunSorted(&db, q).empty());
}

TEST(VectorizedEngineTest, AllFilteredScan) {
  Rng rng(5);
  RandomInstance inst = MakeInstance(&rng, 500);
  BoundQuery q;
  TableAccess t("t", {"id", "a", "b", "s"});
  t.filters.push_back(Cmp(CompareOp::kLt, Col("id"), Const(Value::Int(-1))));
  q.tables.push_back(std::move(t));
  q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
  EXPECT_TRUE(RunSorted(inst.db.get(), q).empty());  // every batch is fully filtered out
}

// --- batch scan spanning the migration copy frontier ---

// While a split operator copies `user` in small batches, the on_batch hook
// (which runs with no latches held, against the still-live source schema)
// scans the source table. A batch scan that spans the copy frontier
// mid-operator must see exactly the source's rows — the copy takes its
// per-batch shared latch at the same rank, and the source stays immutable
// until the quiesce window drops it.
TEST(VectorizedEngineTest, BatchScanSpansMigrationCopyFrontier) {
  std::unique_ptr<Bookstore> bs = Bookstore::Make();
  std::unique_ptr<LogicalDatabase> data = bs->MakeData(5, 8, 120);
  Database db(512);
  ASSERT_TRUE(data->Materialize(&db, bs->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema schema = bs->source;
  MigrationExecutor exec(&db, data.get());

  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 7;
  op.split_moved = {bs->u_addr};
  op.split_moved_anchor = bs->user;

  std::vector<Row> user_before = TableRows(&db, "user");
  ASSERT_FALSE(user_before.empty());
  // The hook's expected answer: (u_id, u_addr) of every source row.
  auto user_table = db.GetTable("user");
  ASSERT_TRUE(user_table.ok());
  auto id_col = (*user_table)->schema->ColumnIndex("u_id");
  auto addr_col = (*user_table)->schema->ColumnIndex("u_addr");
  ASSERT_TRUE(id_col.ok() && addr_col.ok());
  std::vector<Row> want;
  for (const Row& r : user_before) want.push_back({r[*id_col], r[*addr_col]});
  want = SortRows(std::move(want));

  size_t hook_scans = 0;
  MigrationOptions opts;
  opts.batch_rows = 16;  // many batches => many frontier positions
  opts.on_batch = [&](const MigrationBatchEvent&) -> Status {
    BoundQuery q;
    q.tables.emplace_back("user",
                          std::vector<std::string>{"u_id", "u_name", "u_bday", "u_addr"});
    q.select_items.emplace_back(Col("user.u_id"), AggFunc::kNone, "u_id");
    q.select_items.emplace_back(Col("user.u_addr"), AggFunc::kNone, "u_addr");
    std::vector<Row> got = RunSorted(&db, q);
    EXPECT_TRUE(SameRows(got, want))
        << "hook scan returned " << got.size() << " rows, want " << want.size();
    ++hook_scans;
    return Status::OK();
  };
  exec.set_options(std::move(opts));

  auto io = exec.Apply(op, &schema);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_GT(hook_scans, 3u);  // the scan really did straddle several frontiers
}

}  // namespace
}  // namespace pse

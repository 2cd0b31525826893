// Differential testing: random queries executed through the full
// bind->plan->execute stack are checked against a naive reference evaluator
// applied directly to the raw rows — filters, aggregates, hash and
// index-nested-loop joins, DISTINCT, and ORDER BY ... LIMIT over instances
// large enough that every full scan spans three batches. Results are
// compared in exact row order wherever the engine defines one: scans in
// heap order, hash joins probe-major, groups and DISTINCT rows in
// first-seen order. Catches planner/executor/expression bugs that
// hand-written cases miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/logical_database.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/migration_planner.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"
#include "sql/session.h"
#include "tests/common/test_db_builder.h"
#include "tests/engine/engine_test_util.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

using testutil::MakeInstance;
using testutil::RandomInstance;
using testutil::SameRows;
using testutil::SortRows;

/// Random predicate over columns id/a/b/s. Depth-bounded.
ExprPtr RandomPredicate(Rng* rng, int depth = 0) {
  double roll = rng->UniformDouble();
  if (depth < 2 && roll < 0.3) {
    ExprPtr l = RandomPredicate(rng, depth + 1);
    ExprPtr r = RandomPredicate(rng, depth + 1);
    if (rng->Bernoulli(0.5)) return And(std::move(l), std::move(r));
    return std::make_unique<LogicExpr>(LogicOp::kOr, std::move(l), std::move(r));
  }
  if (roll < 0.4) {
    return std::make_unique<NotExpr>(RandomPredicate(rng, depth + 1));
  }
  if (roll < 0.5) {
    const char* cols[] = {"a", "b"};
    return std::make_unique<IsNullExpr>(Col(cols[rng->Index(2)]), rng->Bernoulli(0.5));
  }
  if (roll < 0.6) {
    return std::make_unique<LikeExpr>(Col("s"), rng->Bernoulli(0.5) ? "a%" : "%b%",
                                      rng->Bernoulli(0.3));
  }
  const char* cols[] = {"id", "a", "b"};
  CompareOp ops[] = {CompareOp::kEq,  CompareOp::kNe, CompareOp::kLt,
                     CompareOp::kLe,  CompareOp::kGt, CompareOp::kGe};
  return Cmp(ops[rng->Index(6)], Col(cols[rng->Index(3)]),
             Const(Value::Int(rng->UniformInt(-20, 20))));
}

/// Rows per random instance: more than two TupleBatch::kDefaultRows, so
/// every full scan spans three batches.
constexpr size_t kInstanceRows = 2500;

/// Clones `pred` resolved against t's raw row layout (id, a, b, s), for the
/// reference evaluators.
ExprPtr ResolveOnT(const Expr& pred) {
  ExprPtr ref = pred.Clone();
  Status s = ref->Resolve([](const std::string& name) -> Result<size_t> {
    if (name == "id") return 0;
    if (name == "a") return 1;
    if (name == "b") return 2;
    if (name == "s") return 3;
    return Status::BindError("?");
  });
  EXPECT_TRUE(s.ok()) << pred.ToString() << ": " << s.ToString();
  return ref;
}

/// Reference filter: t's raw rows passing `ref`, in insertion (heap) order.
std::vector<Row> RowsPassing(const Expr& ref, const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    auto pass = EvalPredicate(ref, row);
    EXPECT_TRUE(pass.ok()) << ref.ToString();
    if (pass.ok() && *pass) out.push_back(row);
  }
  return out;
}

/// Plans `q`, checks the plan contains a `kind` node when one is given, and
/// executes it. `plan_out`, when given, receives the plan.
std::vector<Row> PlanAndRun(const BoundQuery& q, Database* db,
                            std::optional<PlanNode::Kind> kind = std::nullopt,
                            PlanPtr* plan_out = nullptr) {
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(q, view);
  EXPECT_TRUE(plan.ok()) << q.ToString() << ": " << plan.status().ToString();
  if (!plan.ok()) return {};
  if (kind.has_value()) {
    EXPECT_NE(testutil::FindPlanNode(plan->get(), *kind), nullptr) << (*plan)->ToString();
  }
  auto rows = ExecutePlan(**plan, db);
  EXPECT_TRUE(rows.ok()) << q.ToString() << ": " << rows.status().ToString();
  if (plan_out != nullptr) *plan_out = std::move(*plan);
  if (!rows.ok()) return {};
  return std::move(*rows);
}

/// Expects `got` to equal `want` row for row, in order (Value::Compare per
/// value), naming the first row that differs.
void ExpectSameSequence(const std::vector<Row>& got, const std::vector<Row>& want,
                        const std::string& what) {
  EXPECT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (!SameRows({got[i]}, {want[i]})) {
      ADD_FAILURE() << what << ": row " << i << " is " << RowToString(got[i]) << ", want "
                    << RowToString(want[i]);
      return;
    }
  }
}

/// Lexicographic order by Value::Compare, for the references' maps: NULL
/// equals NULL and a BIGINT equals the DOUBLE of the same value, as in the
/// engine's hash table.
struct RowLess {
  bool operator()(const Row& x, const Row& y) const {
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      const int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  }
};

/// The columns of `row` at `cols`.
Row Pick(const Row& row, const std::vector<size_t>& cols) {
  Row out;
  for (size_t c : cols) out.push_back(row[c]);
  return out;
}

/// Naive GROUP BY over `rows` on the columns `keys`, groups in first-seen
/// order, each row (keys..., COUNT(*), COUNT(v), COUNT(DISTINCT v), SUM(v),
/// AVG(v), MIN(v), MAX(v)) for the BIGINT column `v`.
std::vector<Row> ReferenceGroupBy(const std::vector<Row>& rows,
                                  const std::vector<size_t>& keys, size_t v) {
  struct Group {
    Row key;
    int64_t count_star = 0, count_v = 0, sum = 0, min = 0, max = 0;
    double sum_double = 0.0;
    std::set<int64_t> distinct;
  };
  std::vector<Group> groups;
  std::map<Row, size_t, RowLess> index;
  for (const Row& row : rows) {
    Row key = Pick(row, keys);
    auto [it, fresh] = index.emplace(key, groups.size());
    if (fresh) {
      groups.emplace_back();
      groups.back().key = std::move(key);
    }
    Group& g = groups[it->second];
    ++g.count_star;
    if (row[v].is_null()) continue;
    const int64_t x = row[v].AsInt();
    g.min = g.count_v == 0 ? x : std::min(g.min, x);
    g.max = g.count_v == 0 ? x : std::max(g.max, x);
    ++g.count_v;
    g.sum += x;
    g.sum_double += static_cast<double>(x);
    g.distinct.insert(x);
  }
  std::vector<Row> out;
  for (const Group& g : groups) {
    Row row = g.key;
    const Value none = Value::Null(TypeId::kDouble);
    row.push_back(Value::Int(g.count_star));
    row.push_back(Value::Int(g.count_v));
    row.push_back(Value::Int(static_cast<int64_t>(g.distinct.size())));
    row.push_back(g.count_v == 0 ? none : Value::Int(g.sum));
    row.push_back(g.count_v == 0
                      ? none
                      : Value::Double(g.sum_double / static_cast<double>(g.count_v)));
    row.push_back(g.count_v == 0 ? none : Value::Int(g.min));
    row.push_back(g.count_v == 0 ? none : Value::Int(g.max));
    out.push_back(std::move(row));
  }
  return out;
}

/// SELECT keys..., COUNT(*), COUNT(v), COUNT(DISTINCT v), SUM(v), AVG(v),
/// MIN(v), MAX(v) FROM t WHERE pred GROUP BY keys, reading `columns` of t.
BoundQuery GroupByQuery(std::vector<std::string> columns, const Expr& pred,
                        const std::vector<std::string>& keys, const std::string& v) {
  BoundQuery q;
  TableAccess t("t", std::move(columns));
  t.filters.push_back(pred.Clone());
  q.tables.push_back(std::move(t));
  for (const std::string& key : keys) {
    q.group_by.push_back(Col("t." + key));
    q.select_items.emplace_back(Col("t." + key), AggFunc::kNone, key);
  }
  q.select_items.emplace_back(nullptr, AggFunc::kCountStar, "n");
  const std::pair<AggFunc, const char*> aggs[] = {
      {AggFunc::kCount, "count_v"}, {AggFunc::kCountDistinct, "distinct_v"},
      {AggFunc::kSum, "sum_v"},     {AggFunc::kAvg, "avg_v"},
      {AggFunc::kMin, "min_v"},     {AggFunc::kMax, "max_v"}};
  for (const auto& [func, name] : aggs) {
    q.select_items.emplace_back(Col("t." + v), func, name);
  }
  return q;
}

/// Multiples of 65,536 share their low 16 bits, so an unmixed identity hash
/// masked to fewer than 65,536 slots would send them all to one slot.
constexpr int64_t kKeyStride = 65536;

/// `v`, or with probability `p` a NULL of its type.
Value MaybeNull(Rng* rng, double p, Value v) {
  return rng->Bernoulli(p) ? Value::Null(v.type()) : std::move(v);
}

/// MakeInstance's t(id, a, b, s) widened with k BIGINT, x DOUBLE and
/// v BIGINT (positions 4, 5, 6), for grouping, joining and DISTINCT over
/// many keys. k takes up to `distinct` values, all multiples of kKeyStride;
/// x mostly takes the same values as DOUBLEs (so x = k can hold) and
/// otherwise a fractional neighbour that equals no BIGINT; v ranges over
/// [-50, 50]. 5% of k and x and 10% of v are NULL.
RandomInstance MakeKeyedInstance(Rng* rng, int64_t distinct) {
  RandomInstance inst;
  inst.db = std::make_unique<Database>(256);
  TableSchema schema("t",
                     {Column("id", TypeId::kInt64, 0, false), Column("a", TypeId::kInt64),
                      Column("b", TypeId::kInt64), Column("s", TypeId::kVarchar, 8),
                      Column("k", TypeId::kInt64), Column("x", TypeId::kDouble),
                      Column("v", TypeId::kInt64)},
                     {"id"});
  EXPECT_TRUE(inst.db->CreateTable(schema).ok());
  for (size_t i = 0; i < kInstanceRows; ++i) {
    const double x = static_cast<double>(kKeyStride * rng->UniformInt(0, distinct - 1)) +
                     (rng->Bernoulli(0.2) ? 0.5 : 0.0);
    Row row{Value::Int(static_cast<int64_t>(i)),
            MaybeNull(rng, 0.1, Value::Int(rng->UniformInt(-20, 20))),
            MaybeNull(rng, 0.1, Value::Int(rng->UniformInt(0, 5))),
            Value::Varchar(std::string(1, static_cast<char>('a' + rng->Index(4)))),
            MaybeNull(rng, 0.05,
                      Value::Int(kKeyStride * rng->UniformInt(0, distinct - 1))),
            MaybeNull(rng, 0.05, Value::Double(x)),
            MaybeNull(rng, 0.1, Value::Int(rng->UniformInt(-50, 50)))};
    EXPECT_TRUE(inst.db->Insert("t", row).ok());
    inst.rows.push_back(std::move(row));
  }
  EXPECT_TRUE(inst.db->AnalyzeAll().ok());
  return inst;
}

/// Adds u(uid BIGINT key, kk BIGINT, xx DOUBLE, c BIGINT) to a keyed
/// instance — `rows` rows whose kk/xx follow t's k/x distribution over the
/// same `distinct` keys, with no index on kk or xx, so joining them always
/// hashes — and returns u's rows.
std::vector<Row> AddKeyedJoinTable(RandomInstance* inst, Rng* rng, int64_t distinct,
                                   size_t rows) {
  TableSchema schema("u",
                     {Column("uid", TypeId::kInt64, 0, false),
                      Column("kk", TypeId::kInt64), Column("xx", TypeId::kDouble),
                      Column("c", TypeId::kInt64)},
                     {"uid"});
  EXPECT_TRUE(inst->db->CreateTable(schema).ok());
  std::vector<Row> out;
  for (size_t i = 0; i < rows; ++i) {
    const int64_t k = kKeyStride * rng->UniformInt(0, distinct - 1);
    const double x = static_cast<double>(kKeyStride * rng->UniformInt(0, distinct - 1)) +
                     (rng->Bernoulli(0.2) ? 0.5 : 0.0);
    Row row{Value::Int(static_cast<int64_t>(i)), MaybeNull(rng, 0.05, Value::Int(k)),
            MaybeNull(rng, 0.05, Value::Double(x)), Value::Int(rng->UniformInt(0, 9))};
    EXPECT_TRUE(inst->db->Insert("u", row).ok());
    out.push_back(std::move(row));
  }
  EXPECT_TRUE(inst->db->AnalyzeAll().ok());
  return out;
}

/// The base table read by the first scan in `plan`'s subtree.
std::string ScannedTable(const PlanNode& plan) {
  if (!plan.table.empty()) return plan.table;
  for (const auto& child : plan.children) {
    std::string table = ScannedTable(*child);
    if (!table.empty()) return table;
  }
  return "";
}

/// Adds u(uid BIGINT key, tid BIGINT, c BIGINT, pad VARCHAR) to `inst`
/// with a secondary index on tid, and returns u's rows. tid names a t.id
/// (several u rows per id, some ids past t's end, some NULL), so t.id =
/// u.tid joins with fan-out 0..many; pad widens u's pages so a selective
/// outer makes the planner probe u.tid instead of hashing.
std::vector<Row> AddJoinTable(RandomInstance* inst, Rng* rng) {
  TableSchema schema("u",
                     {Column("uid", TypeId::kInt64, 0, false),
                      Column("tid", TypeId::kInt64), Column("c", TypeId::kInt64),
                      Column("pad", TypeId::kVarchar, 100)},
                     {"uid"});
  EXPECT_TRUE(inst->db->CreateTable(schema).ok());
  const auto t_rows = static_cast<int64_t>(inst->rows.size());
  std::vector<Row> rows;
  for (size_t i = 0; i < kInstanceRows; ++i) {
    Row row{Value::Int(static_cast<int64_t>(i)),
            rng->Bernoulli(0.05) ? Value::Null(TypeId::kInt64)
                                 : Value::Int(rng->UniformInt(0, t_rows + 50)),
            Value::Int(rng->UniformInt(0, 9)), Value::Varchar(std::string(100, 'p'))};
    EXPECT_TRUE(inst->db->Insert("u", row).ok());
    rows.push_back(std::move(row));
  }
  EXPECT_TRUE(inst->db->CreateIndex("u", "tid").ok());
  EXPECT_TRUE(inst->db->AnalyzeAll().ok());
  return rows;
}

class DifferentialProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialProperty, FilterQueriesMatchReference) {
  Rng rng(GetParam());
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);
  DatabaseCatalogView view(inst.db.get());

  for (int iter = 0; iter < 40; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);

    // Engine path.
    BoundQuery q;
    TableAccess t("t", {"id", "a", "b", "s"});
    t.filters.push_back(pred->Clone());
    q.tables.push_back(std::move(t));
    q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kNone, "a");
    auto plan = PlanQuery(q, view);
    ASSERT_TRUE(plan.ok()) << pred->ToString() << ": " << plan.status().ToString();
    auto got = ExecutePlan(**plan, inst.db.get());
    ASSERT_TRUE(got.ok()) << pred->ToString() << ": " << got.status().ToString();

    // Reference path: evaluate the predicate against the raw rows. The scan
    // returns its survivors in heap order.
    ExprPtr ref = ResolveOnT(*pred);
    std::vector<Row> want;
    for (const Row& row : RowsPassing(*ref, inst.rows)) want.push_back({row[0], row[1]});
    ExpectSameSequence(*got, want, pred->ToString());
  }
}

// The scan decodes most columns only for the rows its filter keeps, but it
// must fetch the same pages, as often, whatever the filter keeps: page I/O
// — and with it the paper's Fig 8 — cannot depend on selectivity. Replays
// FilterQueriesMatchReference's predicates on a hand-built sequential scan
// (the planner would answer some of them with an index scan).
TEST_P(DifferentialProperty, FilteredScansFetchTheSamePagesAsAnUnfilteredScan) {
  Rng rng(GetParam());
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);
  auto page_fetches = [&inst](ExprPtr filter, size_t* rows) -> uint64_t {
    PlanNode scan;
    scan.kind = PlanNode::Kind::kSeqScan;
    scan.table = "t";
    scan.alias = "t";
    scan.scan_column_idxs = {0, 1, 3};
    scan.output_columns = {"t.id", "t.a", "t.s"};
    scan.scan_filter = std::move(filter);
    const BufferPoolStats before = inst.db->pool()->stats();
    auto got = ExecutePlan(scan, inst.db.get());
    const BufferPoolStats after = inst.db->pool()->stats();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    *rows = got.ok() ? got->size() : 0;
    return after.hits + after.misses - before.hits - before.misses;
  };
  size_t rows = 0;
  const uint64_t unfiltered = page_fetches(nullptr, &rows);
  ASSERT_EQ(rows, inst.rows.size());
  ASSERT_GT(unfiltered, 2u);  // the table spans several pages

  for (int iter = 0; iter < 40; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);
    const size_t want_rows = RowsPassing(*ResolveOnT(*pred), inst.rows).size();
    EXPECT_EQ(page_fetches(ResolveOnT(*pred), &rows), unfiltered) << pred->ToString();
    EXPECT_EQ(rows, want_rows) << pred->ToString();
  }
}

TEST_P(DifferentialProperty, AggregateQueriesMatchReference) {
  Rng rng(GetParam() * 31 + 7);
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);

  for (int iter = 0; iter < 20; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);
    // SELECT b, COUNT(*), COUNT(a), COUNT(DISTINCT a), SUM(a), AVG(a),
    // MIN(a), MAX(a) FROM t WHERE pred GROUP BY b: groups in first-seen
    // order, NULL b as one group.
    std::vector<Row> got =
        PlanAndRun(GroupByQuery({"id", "a", "b", "s"}, *pred, {"b"}, "a"), inst.db.get(),
                   PlanNode::Kind::kAggregate);
    std::vector<Row> want =
        ReferenceGroupBy(RowsPassing(*ResolveOnT(*pred), inst.rows), {2}, 1);
    ExpectSameSequence(got, want, pred->ToString());
  }
}

// Thousands of groups keyed by multiples of 65,536, on one and two key
// columns (BIGINT and DOUBLE), so the aggregation table grows several times
// through keys an unmixed hash would pile into one slot.
TEST_P(DifferentialProperty, GroupByOverManyKeysMatchesReference) {
  Rng rng(GetParam() * 37 + 1);
  for (int64_t distinct : {40, 2500}) {
    RandomInstance inst = MakeKeyedInstance(&rng, distinct);
    const std::vector<std::string> columns = {"id", "a", "b", "s", "k", "x", "v"};
    const std::pair<std::vector<std::string>, std::vector<size_t>> key_sets[] = {
        {{"k"}, {4}}, {{"x"}, {5}}, {{"k", "b"}, {4, 2}}};
    size_t groups = 0;
    for (int iter = 0; iter < 9; ++iter) {
      // The first pass keeps every row, so the table sees every key.
      ExprPtr pred = iter == 0 ? Cmp(CompareOp::kGe, Col("id"), Const(Value::Int(0)))
                               : RandomPredicate(&rng);
      const auto& [keys, key_cols] = key_sets[iter % 3];
      std::vector<Row> got = PlanAndRun(GroupByQuery(columns, *pred, keys, "v"),
                                        inst.db.get(), PlanNode::Kind::kAggregate);
      std::vector<Row> want =
          ReferenceGroupBy(RowsPassing(*ResolveOnT(*pred), inst.rows), key_cols, 6);
      ExpectSameSequence(got, want,
                         keys[0] + " keys, " + std::to_string(distinct) + " distinct, " +
                             pred->ToString());
      groups = std::max(groups, want.size());
    }
    EXPECT_GT(groups, static_cast<size_t>(distinct) / 2)
        << "too few groups to grow the table";
  }
}

TEST_P(DifferentialProperty, JoinQueriesMatchReference) {
  Rng rng(GetParam() * 13 + 5);
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);
  std::vector<Row> u_rows = AddJoinTable(&inst, &rng);
  std::map<int64_t, std::vector<const Row*>> u_by_tid;
  for (const Row& u_row : u_rows) {
    if (!u_row[1].is_null()) u_by_tid[u_row[1].AsInt()].push_back(&u_row);
  }

  constexpr int64_t kAnyC = 9;  // u.c ranges over [0, 9]
  // Reference equi-join of t rows passing `t_ref` with u rows whose c is at
  // most `max_c` on t.id = u.tid, projected to (t.id, t.a, u.uid, u.c).
  auto reference = [&](const Expr& t_ref, int64_t max_c) {
    std::vector<Row> want;
    for (const Row& t_row : RowsPassing(t_ref, inst.rows)) {
      auto it = u_by_tid.find(t_row[0].AsInt());
      if (it == u_by_tid.end()) continue;
      for (const Row* u_row : it->second) {
        if ((*u_row)[2].AsInt() > max_c) continue;
        want.push_back({t_row[0], t_row[1], (*u_row)[0], (*u_row)[2]});
      }
    }
    return SortRows(std::move(want));
  };
  auto select_join_columns = [](BoundQuery* q) {
    q->select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q->select_items.emplace_back(Col("t.a"), AggFunc::kNone, "a");
    q->select_items.emplace_back(Col("u.uid"), AggFunc::kNone, "uid");
    q->select_items.emplace_back(Col("u.c"), AggFunc::kNone, "c");
  };

  size_t hash_rows = 0, inlj_rows = 0;
  for (int iter = 0; iter < 20; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);

    // Hash join: all of u drives, so probing t.id per u row would cost more
    // than hashing t. Rows come probe-major: probe rows in heap order, each
    // followed by its build matches in heap order.
    {
      BoundQuery q;
      q.tables.push_back(TableAccess("u", {"uid", "tid", "c"}));
      TableAccess t("t", {"id", "a"});
      t.filters.push_back(pred->Clone());
      q.tables.push_back(std::move(t));
      q.joins.push_back(EquiJoin{0, 1, "tid", "id"});
      select_join_columns(&q);
      PlanPtr plan;
      std::vector<Row> got =
          PlanAndRun(q, inst.db.get(), PlanNode::Kind::kHashJoin, &plan);
      ASSERT_NE(plan, nullptr);
      const PlanNode* join =
          testutil::FindPlanNode(plan.get(), PlanNode::Kind::kHashJoin);
      ASSERT_NE(join, nullptr);
      const bool t_builds = ScannedTable(*join->children[0]) == "t";
      std::vector<Row> want;
      std::vector<Row> t_rows = RowsPassing(*ResolveOnT(*pred), inst.rows);
      if (t_builds) {
        std::map<int64_t, const Row*> t_by_id;
        for (const Row& t_row : t_rows) t_by_id.emplace(t_row[0].AsInt(), &t_row);
        for (const Row& u_row : u_rows) {
          if (u_row[1].is_null()) continue;
          auto it = t_by_id.find(u_row[1].AsInt());
          if (it == t_by_id.end()) continue;
          want.push_back({(*it->second)[0], (*it->second)[1], u_row[0], u_row[2]});
        }
      } else {
        for (const Row& t_row : t_rows) {
          auto it = u_by_tid.find(t_row[0].AsInt());
          if (it == u_by_tid.end()) continue;
          for (const Row* u_row : it->second) {
            want.push_back({t_row[0], t_row[1], (*u_row)[0], (*u_row)[2]});
          }
        }
      }
      ExpectSameSequence(got, want,
                         std::string("hash join building ") + (t_builds ? "t" : "u") +
                             " on " + pred->ToString());
      hash_rows += want.size();
    }

    // Index nested-loop join: a few t rows (one a, one b) probe u.tid, and
    // u's filter runs on each probed row.
    {
      ExprPtr a_eq =
          Cmp(CompareOp::kEq, Col("a"), Const(Value::Int(rng.UniformInt(-20, 20))));
      ExprPtr b_eq =
          Cmp(CompareOp::kEq, Col("b"), Const(Value::Int(rng.UniformInt(0, 5))));
      ExprPtr outer_pred = And(And(std::move(a_eq), std::move(b_eq)), pred->Clone());
      BoundQuery q;
      TableAccess t("t", {"id", "a"});
      t.filters.push_back(outer_pred->Clone());
      q.tables.push_back(std::move(t));
      const int64_t max_c = rng.UniformInt(0, kAnyC);
      TableAccess u("u", {"uid", "tid", "c"});
      u.filters.push_back(Cmp(CompareOp::kLe, Col("c"), Const(Value::Int(max_c))));
      q.tables.push_back(std::move(u));
      q.joins.push_back(EquiJoin{0, 1, "id", "tid"});
      select_join_columns(&q);
      std::vector<Row> got =
          SortRows(PlanAndRun(q, inst.db.get(), PlanNode::Kind::kIndexNLJoin));
      std::vector<Row> want = reference(*ResolveOnT(*outer_pred), max_c);
      EXPECT_TRUE(SameRows(got, want))
          << "index nested-loop join on " << outer_pred->ToString() << ": " << got.size()
          << " vs " << want.size() << " rows";
      inlj_rows += want.size();
    }
  }
  // Neither join kind may pass vacuously on empty answers.
  EXPECT_GT(hash_rows, 0u);
  EXPECT_GT(inlj_rows, 0u);
}

/// The first occurrence of each distinct `cols` projection of `rows`, in
/// input order — DISTINCT's output order.
std::vector<Row> FirstOccurrences(const std::vector<Row>& rows,
                                  const std::vector<size_t>& cols) {
  std::set<Row, RowLess> seen;
  std::vector<Row> out;
  for (const Row& row : rows) {
    Row key = Pick(row, cols);
    if (seen.insert(key).second) out.push_back(std::move(key));
  }
  return out;
}

TEST_P(DifferentialProperty, DistinctQueriesMatchReference) {
  Rng rng(GetParam() * 7 + 3);
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);

  for (int iter = 0; iter < 20; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);
    // SELECT DISTINCT b, s FROM t WHERE pred.
    BoundQuery q;
    TableAccess t("t", {"id", "a", "b", "s"});
    t.filters.push_back(pred->Clone());
    q.tables.push_back(std::move(t));
    q.select_items.emplace_back(Col("t.b"), AggFunc::kNone, "b");
    q.select_items.emplace_back(Col("t.s"), AggFunc::kNone, "s");
    q.select_distinct = true;
    std::vector<Row> got = PlanAndRun(q, inst.db.get(), PlanNode::Kind::kDistinct);
    std::vector<Row> want =
        FirstOccurrences(RowsPassing(*ResolveOnT(*pred), inst.rows), {2, 3});
    ExpectSameSequence(got, want, pred->ToString());
  }
}

// DISTINCT over up to thousands of keys that are multiples of 65,536,
// BIGINT and DOUBLE columns, NULLs included.
TEST_P(DifferentialProperty, DistinctOverManyKeysKeepsFirstOccurrences) {
  Rng rng(GetParam() * 43 + 5);
  for (int64_t distinct : {40, 2500}) {
    RandomInstance inst = MakeKeyedInstance(&rng, distinct);
    const std::pair<std::vector<std::string>, std::vector<size_t>> col_sets[] = {
        {{"k"}, {4}}, {{"x", "b"}, {5, 2}}, {{"k", "x", "v"}, {4, 5, 6}}};
    for (int iter = 0; iter < 6; ++iter) {
      ExprPtr pred = iter == 0 ? Cmp(CompareOp::kGe, Col("id"), Const(Value::Int(0)))
                               : RandomPredicate(&rng);
      const auto& [cols, positions] = col_sets[iter % 3];
      BoundQuery q;
      TableAccess t("t", cols);
      t.filters.push_back(pred->Clone());
      q.tables.push_back(std::move(t));
      for (const std::string& c : cols) {
        q.select_items.emplace_back(Col("t." + c), AggFunc::kNone, c);
      }
      q.select_distinct = true;
      std::vector<Row> got = PlanAndRun(q, inst.db.get(), PlanNode::Kind::kDistinct);
      std::vector<Row> want =
          FirstOccurrences(RowsPassing(*ResolveOnT(*pred), inst.rows), positions);
      const std::string what =
          cols[0] + ", " + std::to_string(distinct) + " distinct, " + pred->ToString();
      ExpectSameSequence(got, want, what);
      // GROUP BY with no aggregate answers the same, groups in first-seen
      // order.
      q.select_distinct = false;
      for (const std::string& c : cols) q.group_by.push_back(Col("t." + c));
      ExpectSameSequence(PlanAndRun(q, inst.db.get(), PlanNode::Kind::kAggregate), want,
                         "GROUP BY " + what);
    }
  }
}

// Hash joins on keys that are multiples of 65,536, BIGINT against DOUBLE
// (x = 655360.0 joins k = 655360; x = 655360.5 joins nothing), NULL keys
// on both sides (never joining), in the engine's order: probe rows in heap
// order, each followed by its build matches in heap order.
TEST_P(DifferentialProperty, HashJoinsOverManyKeysMatchReferenceInProbeOrder) {
  Rng rng(GetParam() * 41 + 9);
  for (int64_t distinct : {40, 2500}) {
    RandomInstance inst = MakeKeyedInstance(&rng, distinct);
    const std::vector<Row> u_rows = AddKeyedJoinTable(&inst, &rng, distinct, 600);
    struct JoinKeys {
      const char* t_col;
      size_t t_pos;
      const char* u_col;
      size_t u_pos;
    };
    const JoinKeys keys[] = {{"k", 4, "kk", 1}, {"k", 4, "xx", 2}, {"x", 5, "kk", 1},
                             {"x", 5, "xx", 2}};
    size_t joined = 0;
    for (int iter = 0; iter < 8; ++iter) {
      ExprPtr pred = RandomPredicate(&rng);
      const JoinKeys& key = keys[iter % 4];
      BoundQuery q;
      q.tables.push_back(TableAccess("u", {"uid", key.u_col, "c"}));
      TableAccess t("t", {"id", key.t_col});
      t.filters.push_back(pred->Clone());
      q.tables.push_back(std::move(t));
      q.joins.push_back(EquiJoin{0, 1, key.u_col, key.t_col});
      q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
      q.select_items.emplace_back(Col(std::string("t.") + key.t_col), AggFunc::kNone,
                                  "tk");
      q.select_items.emplace_back(Col("u.uid"), AggFunc::kNone, "uid");
      q.select_items.emplace_back(Col("u.c"), AggFunc::kNone, "c");
      PlanPtr plan;
      std::vector<Row> got =
          PlanAndRun(q, inst.db.get(), PlanNode::Kind::kHashJoin, &plan);
      ASSERT_NE(plan, nullptr);
      const PlanNode* join =
          testutil::FindPlanNode(plan.get(), PlanNode::Kind::kHashJoin);
      ASSERT_NE(join, nullptr);
      const bool t_builds = ScannedTable(*join->children[0]) == "t";

      const std::vector<Row> t_rows = RowsPassing(*ResolveOnT(*pred), inst.rows);
      const std::vector<Row>& build = t_builds ? t_rows : u_rows;
      const std::vector<Row>& probe = t_builds ? u_rows : t_rows;
      const size_t build_key = t_builds ? key.t_pos : key.u_pos;
      const size_t probe_key = t_builds ? key.u_pos : key.t_pos;
      std::map<Value, std::vector<const Row*>> build_by_key;  // Value::Compare equality
      for (const Row& row : build) {
        if (!row[build_key].is_null()) build_by_key[row[build_key]].push_back(&row);
      }
      std::vector<Row> want;
      for (const Row& probe_row : probe) {
        if (probe_row[probe_key].is_null()) continue;
        auto it = build_by_key.find(probe_row[probe_key]);
        if (it == build_by_key.end()) continue;
        for (const Row* build_row : it->second) {
          const Row& t_row = t_builds ? *build_row : probe_row;
          const Row& u_row = t_builds ? probe_row : *build_row;
          want.push_back({t_row[0], t_row[key.t_pos], u_row[0], u_row[3]});
        }
      }
      ExpectSameSequence(got, want,
                         std::string("t.") + key.t_col + " = u." + key.u_col +
                             " building " + (t_builds ? "t" : "u") + ", " +
                             std::to_string(distinct) + " distinct, " + pred->ToString());
      joined += want.size();
    }
    EXPECT_GT(joined, 0u);
  }
}

TEST_P(DifferentialProperty, OrderByLimitQueriesMatchReference) {
  Rng rng(GetParam() * 19 + 11);
  RandomInstance inst = MakeInstance(&rng, kInstanceRows);

  for (int iter = 0; iter < 20; ++iter) {
    ExprPtr pred = RandomPredicate(&rng);
    // SELECT id, a, b FROM t WHERE pred ORDER BY a [, b] LIMIT n. Keys tie,
    // so the exact row sequence also checks that ties keep heap order.
    std::vector<OrderKey> keys = {OrderKey{1, rng.Bernoulli(0.5)}};
    if (rng.Bernoulli(0.5)) keys.insert(keys.begin(), OrderKey{2, rng.Bernoulli(0.5)});
    const int64_t limit = rng.UniformInt(0, 60);
    BoundQuery q;
    TableAccess t("t", {"id", "a", "b"});
    t.filters.push_back(pred->Clone());
    q.tables.push_back(std::move(t));
    q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("t.a"), AggFunc::kNone, "a");
    q.select_items.emplace_back(Col("t.b"), AggFunc::kNone, "b");
    q.order_by = keys;
    q.limit = limit;
    std::vector<Row> got = PlanAndRun(q, inst.db.get(), PlanNode::Kind::kSort);

    std::vector<Row> want;
    for (const Row& row : RowsPassing(*ResolveOnT(*pred), inst.rows)) {
      want.push_back({row[0], row[1], row[2]});
    }
    std::stable_sort(want.begin(), want.end(), [&keys](const Row& x, const Row& y) {
      for (const OrderKey& k : keys) {
        int c = x[k.select_index].Compare(y[k.select_index]);
        if (c != 0) return k.desc ? c > 0 : c < 0;
      }
      return false;
    });
    if (want.size() > static_cast<size_t>(limit)) want.resize(static_cast<size_t>(limit));
    EXPECT_TRUE(SameRows(got, want))
        << pred->ToString() << " limit " << limit << ": " << got.size() << " vs "
        << want.size() << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty, ::testing::Values(1, 17, 23, 99));

// --- cross-schema differential oracle ---
//
// The rewriter's correctness invariant (core/rewriter.h) says a query
// answers identically on every valid intermediate schema. This test checks
// it end to end on the paper's own trajectory: ground truth is the full
// TPC-W workload executed on the fully-migrated object schema; then the
// Fig-7-style LAA trajectory is replayed operator by operator with the
// MigrationExecutor, and after every single operator each servable query is
// rewritten onto the current intermediate schema, executed, and compared
// row for row.

/// Rewrites + executes `query` on `schema` over `db`, returning its rows
/// sorted; unservable (BindError) comes back as std::nullopt, any other
/// failure is a test failure.
std::optional<std::vector<Row>> RunOnSchema(Database* db, const LogicalQuery& query,
                                            const PhysicalSchema& schema) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    EXPECT_TRUE(bound.status().IsBindError())
        << query.name << ": " << bound.status().ToString();
    return std::nullopt;
  }
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(*bound, view);
  EXPECT_TRUE(plan.ok()) << query.name << ": " << plan.status().ToString();
  if (!plan.ok()) return std::nullopt;
  auto rows = ExecutePlan(**plan, db);
  EXPECT_TRUE(rows.ok()) << query.name << ": " << rows.status().ToString();
  if (!rows.ok()) return std::nullopt;
  return SortRows(std::move(*rows));
}

TEST(CrossSchemaOracle, TpcwWorkloadRowEqualOnEveryLaaIntermediate) {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  std::vector<std::vector<double>> phase_freqs = Fig9IrregularFrequencies();
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny());
  std::vector<LogicalStats> phase_stats = {data->ComputeStats()};

  // Ground truth: every query on the fully-migrated object schema.
  std::vector<std::vector<Row>> oracle(queries->size());
  {
    Database db(4096);
    ASSERT_TRUE(data->Materialize(&db, schema->object).ok());
    ASSERT_TRUE(db.AnalyzeAll().ok());
    for (size_t q = 0; q < queries->size(); ++q) {
      auto rows = RunOnSchema(&db, (*queries)[q].query, schema->object);
      ASSERT_TRUE(rows.has_value()) << "query " << (*queries)[q].query.name
                                    << " must be servable on the object schema";
      oracle[q] = std::move(*rows);
    }
  }

  auto opset = ComputeOperatorSet(schema->source, schema->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();

  Database db(4096);
  ASSERT_TRUE(data->Materialize(&db, schema->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = schema->source;
  MigrationExecutor exec(&db, data.get());

  MigrationContext ctx;
  ctx.object = &schema->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &phase_freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &*queries;

  size_t intermediates = 0;
  auto check_all = [&](const std::string& where) {
    for (size_t q = 0; q < queries->size(); ++q) {
      auto rows = RunOnSchema(&db, (*queries)[q].query, current);
      if (!rows.has_value()) continue;  // unservable here: allowed
      EXPECT_TRUE(SameRows(*rows, oracle[q]))
          << (*queries)[q].query.name << " diverges from the object-schema oracle "
          << where << " (" << rows->size() << " vs " << oracle[q].size() << " rows)";
    }
    ++intermediates;
  };

  check_all("on the source schema");
  for (size_t p = 0; p < phase_freqs.size(); ++p) {
    ctx.current = &current;
    auto laa = SelectOpsLaa(ctx, p);
    ASSERT_TRUE(laa.ok()) << laa.status().ToString();
    for (int op : laa->ops_to_apply) {
      auto io = exec.Apply(opset->ops[static_cast<size_t>(op)], &current);
      ASSERT_TRUE(io.ok()) << "op#" << opset->ops[static_cast<size_t>(op)].id << ": "
                           << io.status().ToString();
      ctx.applied[static_cast<size_t>(op)] = true;
      ASSERT_TRUE(db.AnalyzeAll().ok());
      check_all("after op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
    }
  }

  // Final migration: ops LAA never found cost-beneficial are applied at the
  // end of the last phase (what MigrationSimulation does), still checking
  // every intermediate.
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int op : *topo) {
    if (ctx.applied[static_cast<size_t>(op)]) continue;
    auto io = exec.Apply(opset->ops[static_cast<size_t>(op)], &current);
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    ctx.applied[static_cast<size_t>(op)] = true;
    ASSERT_TRUE(db.AnalyzeAll().ok());
    check_all("after final-migration op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
  }

  // The trajectory must have moved through several distinct intermediates.
  EXPECT_GT(intermediates, 2u);
  for (size_t q = 0; q < queries->size(); ++q) {
    EXPECT_TRUE(RewriteQuery((*queries)[q].query, current).ok())
        << (*queries)[q].query.name << " must be servable once migration completes";
  }
}

// --- mixed read/write differential oracle ---
//
// The write-side extension of the invariant above: random DML from BOTH
// application versions flows through the DmlRouter on every LAA
// intermediate — including mid-copy, on both sides of a live frontier — and
// is mirrored on the entity-level LogicalDatabase. After every burst the
// physical tables must equal a fresh materialization of the mirror, and
// every servable read must equal the same query answered on the
// fully-migrated object schema built from the mirror.

TEST(MixedRwCrossSchemaOracle, DmlFromBothVersionsAgreesOnEveryLaaIntermediate) {
  auto bs = testutil::Bookstore::Make();
  const LogicalSchema& lg = bs->logical;
  // The mirror doubles as the executor's entity source (kCreateTable rows),
  // which is exactly the shared-truth semantics: rows written before the
  // create op must appear in the created fragment too. DML therefore pauses
  // while an entity-sourced copy is in flight (the row vector must not move
  // under the scan); scan/join-sourced ops take live writes every batch.
  auto mirror = bs->MakeData(5, 4, 40);

  std::vector<VersionTable> tables = VersionTablesOf(bs->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }

  // Read workload: one query per version era (the new one needs b_abstract,
  // unservable until its create op lands), reused as the LAA's predicted
  // workload.
  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(book), /*is_old=*/true);
    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries.emplace_back(std::move(user), /*is_old=*/true);
    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries.emplace_back(std::move(abstract_q), /*is_old=*/false);
  }

  Database db(4096);
  ASSERT_TRUE(mirror->Materialize(&db, bs->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs->source;
  DmlRouter router(&db);
  Rng rng(20260808);

  // The workload keeps the instance COVERING (every FK names a live author):
  // FKs always reference a seed author, INSERTs must provide them, and
  // author rows are never deleted. Reads rewrite parent joins as inner
  // joins, so the join layout and the denormalized layout only answer alike
  // on covering data — the uncovered cases (dangling/NULL FK) are state-
  // checked by the RewriteDmlOracle suite instead.
  auto random_statement = [&]() {
    const VersionTable& vt = tables[rng.Index(tables.size())];
    LogicalDml dml;
    double roll = rng.UniformDouble();
    dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
    if (dml.kind == DmlKind::kDelete && vt.anchor == bs->author) dml.kind = DmlKind::kUpdate;
    dml.table = vt;
    // Keys straddle the MakeData ranges so hits, misses, and rows on both
    // sides of a mid-copy frontier all occur.
    dml.key = rng.UniformInt(0, 45);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : vt.attrs) {
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value()) {
          if (dml.kind == DmlKind::kInsert || rng.Bernoulli(0.6)) {
            dml.set_attrs.push_back(a);
            dml.set_values.push_back(Value::Int(rng.UniformInt(0, 4)));
          }
          continue;
        }
        if (!rng.Bernoulli(0.6)) continue;
        dml.set_attrs.push_back(a);
        if (attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(rng.UniformInt(-5, 40)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng.UniformInt(0, 999))));
        }
      }
    }
    return dml;
  };

  uint64_t applied_writes = 0;
  auto write_one = [&]() -> Status {
    LogicalDml dml = random_statement();
    Status s = router.Execute(dml, current);
    if (s.IsBindError()) return Status::OK();  // unservable here: skipped
    if (!s.ok()) return s;
    testutil::MirrorApply(mirror.get(), dml);
    ++applied_writes;
    return Status::OK();
  };

  size_t checked_intermediates = 0;
  auto check_all = [&](const std::string& where) {
    ++checked_intermediates;
    ASSERT_TRUE(db.AnalyzeAll().ok());
    testutil::ExpectStateMatchesMirror(&db, *mirror, current, where);
    // Read side: the object-schema answer from the mirror is the oracle.
    Database scratch(4096);
    ASSERT_TRUE(mirror->Materialize(&scratch, bs->object).ok());
    ASSERT_TRUE(scratch.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries) {
      auto want = RunOnSchema(&scratch, wq.query, bs->object);
      ASSERT_TRUE(want.has_value()) << wq.query.name << " " << where;
      auto got = RunOnSchema(&db, wq.query, current);
      if (!got.has_value()) continue;  // unservable on this intermediate
      EXPECT_TRUE(SameRows(*got, *want))
          << wq.query.name << " diverges from the mirror oracle " << where << " ("
          << got->size() << " vs " << want->size() << " rows)";
    }
  };

  auto opset = ComputeOperatorSet(bs->source, bs->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  MigrationExecutor exec(&db, mirror.get());

  auto apply_with_live_writes = [&](const MigrationOperator& op) {
    MigrationOptions opts;
    opts.batch_rows = 8;  // several batches per target: a real frontier
    opts.dml_router = &router;
    // Entity-sourced creates read the mirror's row vectors directly; live
    // statements would mutate them mid-scan. Scan/join ops write every batch.
    if (op.kind != OperatorKind::kCreateTable) {
      opts.on_batch = [&](const MigrationBatchEvent&) -> Status {
        PSE_RETURN_NOT_OK(write_one());
        return write_one();
      };
    }
    exec.set_options(std::move(opts));
    auto io = exec.Apply(op, &current);
    ASSERT_TRUE(io.ok()) << "op#" << op.id << ": " << io.status().ToString();
    ASSERT_FALSE(router.attached()) << "op#" << op.id << " left the router attached";
  };

  std::vector<std::vector<double>> phase_freqs = {{10, 10, 5}};
  std::vector<LogicalStats> phase_stats = {mirror->ComputeStats()};
  MigrationContext ctx;
  ctx.object = &bs->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &phase_freqs;
  ctx.phase_stats = &phase_stats;
  ctx.queries = &queries;

  // Burst on the source schema first, then after every operator the LAA
  // trajectory publishes (cost-picked ops first, the remainder in topo
  // order — the same walk MigrationSimulation takes).
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(write_one().ok());
  check_all("on the source schema");

  auto run_op = [&](int op) {
    apply_with_live_writes(opset->ops[static_cast<size_t>(op)]);
    ctx.applied[static_cast<size_t>(op)] = true;
    for (int i = 0; i < 15; ++i) ASSERT_TRUE(write_one().ok());
    check_all("after op#" + std::to_string(opset->ops[static_cast<size_t>(op)].id));
  };
  ctx.current = &current;
  auto laa = SelectOpsLaa(ctx, 0);
  ASSERT_TRUE(laa.ok()) << laa.status().ToString();
  for (int op : laa->ops_to_apply) run_op(op);
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int op : *topo) {
    if (!ctx.applied[static_cast<size_t>(op)]) run_op(op);
  }

  EXPECT_GT(checked_intermediates, 2u);
  EXPECT_GT(applied_writes, 0u);
  EXPECT_GT(router.stats().dual_applied, 0u) << "no write ever landed on a live frontier";
  // Post-migration, every version table of both eras must accept writes.
  for (const VersionTable& vt : tables) {
    LogicalDml probe;
    probe.kind = DmlKind::kInsert;
    probe.table = vt;
    probe.key = 9000 + static_cast<int64_t>(&vt - tables.data());
    EXPECT_TRUE(router.Execute(probe, current).ok()) << vt.name;
    testutil::MirrorApply(mirror.get(), probe);
  }
  testutil::ExpectStateMatchesMirror(&db, *mirror, current, "after the post-migration probes");
}

// --- multi-tenant mixed R/W differential oracle ---
//
// The fleet-wide extension: three tenant shards with distinct data walk the
// SAME FleetSchedule but stop at DIFFERENT positions, with random DML from
// both application versions flowing through every shard's own DmlRouter
// between operators. Each tenant must keep matching its OWN single-tenant
// oracle (its entity-level mirror materialized fresh), proving tenants are
// truly shared-nothing: a neighbor's writes, provenance, or trajectory
// position never bleed into another shard's answers.

TEST(FleetDifferentialOracle, TenantsAtDifferentStepsEachMatchTheirOwnOracle) {
  auto bs = testutil::Bookstore::Make();
  const LogicalSchema& lg = bs->logical;
  auto schedule = PlanFleetSchedule(bs->source, bs->object);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const size_t steps = schedule->steps();
  ASSERT_GE(steps, 3u) << "the bookstore trajectory must have several steps";
  // Tenant 0 barely starts, tenant 1 parks mid-trajectory, tenant 2
  // finishes — three different serving schemas under one schedule.
  const size_t positions[3] = {1, 2, steps};

  std::vector<VersionTable> tables = VersionTablesOf(bs->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }

  std::vector<WorkloadQuery> queries;
  {
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries.emplace_back(std::move(book), /*is_old=*/true);
    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries.emplace_back(std::move(user), /*is_old=*/true);
    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries.emplace_back(std::move(abstract_q), /*is_old=*/false);
  }

  // Per-tenant mirror + shard. The mirror doubles as the shard's entity
  // source (the MixedRwCrossSchemaOracle shared-truth semantics); writes
  // happen only between operators here, so entity-sourced creates never
  // scan a mirror mid-mutation.
  std::unique_ptr<LogicalDatabase> mirrors[3];
  std::unique_ptr<TenantShard> shards[3];
  for (size_t t = 0; t < 3; ++t) {
    mirrors[t] = bs->MakeData(4 + static_cast<int>(t), 3, 25 + 5 * static_cast<int>(t));
    auto shard = TenantShard::Create(t, bs->source, mirrors[t].get());
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards[t] = std::move(*shard);
  }

  Rng rng(20260808);
  // Covering-data discipline as in MixedRwCrossSchemaOracle: FKs always
  // reference a seed author (every tenant has >= 4), authors never deleted.
  auto random_statement = [&]() {
    const VersionTable& vt = tables[rng.Index(tables.size())];
    LogicalDml dml;
    double roll = rng.UniformDouble();
    dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
    if (dml.kind == DmlKind::kDelete && vt.anchor == bs->author) dml.kind = DmlKind::kUpdate;
    dml.table = vt;
    dml.key = rng.UniformInt(0, 40);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : vt.attrs) {
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value()) {
          if (dml.kind == DmlKind::kInsert || rng.Bernoulli(0.6)) {
            dml.set_attrs.push_back(a);
            dml.set_values.push_back(Value::Int(rng.UniformInt(0, 3)));
          }
          continue;
        }
        if (!rng.Bernoulli(0.6)) continue;
        dml.set_attrs.push_back(a);
        if (attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(rng.UniformInt(-5, 40)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng.UniformInt(0, 999))));
        }
      }
    }
    return dml;
  };

  uint64_t applied_writes = 0;
  auto write_one = [&](size_t t) -> Status {
    LogicalDml dml = random_statement();
    Status s = shards[t]->router()->Execute(dml, shards[t]->CurrentSchema());
    if (s.IsBindError()) return Status::OK();  // unservable on this tenant's step
    if (!s.ok()) return s;
    testutil::MirrorApply(mirrors[t].get(), dml);
    ++applied_writes;
    return Status::OK();
  };

  // Each tenant's oracle is its OWN mirror: physical state must equal a
  // fresh materialization, and every servable read must equal the same
  // query answered on the object schema built from that mirror alone.
  auto check_tenant = [&](size_t t, const std::string& where) {
    ASSERT_TRUE(shards[t]->db()->AnalyzeAll().ok());
    PhysicalSchema current = shards[t]->CurrentSchema();
    testutil::ExpectStateMatchesMirror(shards[t]->db(), *mirrors[t], current,
                                       "tenant " + std::to_string(t) + " " + where);
    Database scratch(4096);
    ASSERT_TRUE(mirrors[t]->Materialize(&scratch, bs->object).ok());
    ASSERT_TRUE(scratch.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries) {
      auto want = RunOnSchema(&scratch, wq.query, bs->object);
      ASSERT_TRUE(want.has_value()) << wq.query.name;
      auto got = RunOnSchema(shards[t]->db(), wq.query, current);
      if (!got.has_value()) continue;  // unservable at this tenant's step
      EXPECT_TRUE(SameRows(*got, *want))
          << "tenant " << t << ": " << wq.query.name << " diverges from its own oracle "
          << where << " (" << got->size() << " vs " << want->size() << " rows)";
    }
  };

  MigrationOptions options;
  options.batch_rows = 8;  // several batches per target: a real frontier
  for (size_t s = 1; s <= steps; ++s) {
    // Writes land on EVERY tenant before each rollout wave, so a migrating
    // tenant's neighbors are mid-write exactly when cross-shard state could
    // bleed.
    for (size_t t = 0; t < 3; ++t) {
      for (int i = 0; i < 6; ++i) ASSERT_TRUE(write_one(t).ok());
    }
    for (size_t t = 0; t < 3; ++t) {
      if (positions[t] < s) continue;  // this tenant parked earlier
      ASSERT_EQ(shards[t]->step(), s - 1);
      Status st = shards[t]->AdvanceOneOp(*schedule, options);
      ASSERT_TRUE(st.ok()) << "tenant " << t << " step " << s << ": " << st.ToString();
    }
    for (size_t t = 0; t < 3; ++t) {
      check_tenant(t, "after rollout wave " + std::to_string(s));
    }
  }

  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(shards[t]->step(), positions[t]) << "tenant " << t;
    EXPECT_TRUE(shards[t]->CurrentSchema().EquivalentTo(schedule->at(positions[t])));
  }
  EXPECT_GT(applied_writes, 0u);
  // A final burst on the parked tenants: intermediate schemas keep taking
  // writes after the fleet's rollout wave has passed them by.
  for (size_t t = 0; t < 3; ++t) {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(write_one(t).ok());
    check_tenant(t, "after the post-rollout burst");
  }
}

}  // namespace
}  // namespace pse

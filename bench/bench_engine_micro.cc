// Engine micro-benchmarks: the storage/executor primitives everything above
// is built on — B+ tree inserts/lookups, heap scans, hash joins, and the
// analytical cost estimator itself (which LAA/GAA call thousands of times
// per migration point), via google-benchmark.
//
// Invoked with --json=PATH the binary skips the google-benchmark suite and
// instead times one plan per batch operator — scan->filter->project, a
// 1%-selective scan of a wide table, a hash join, an index nested-loop join,
// a GROUP BY over 10,000 groups, a DISTINCT and a sort of 100,000 rows —
// and writes BENCH_engine_micro.json for scripts/bench.sh. It exits 1
// unless every run returns exactly the expected rows (in the expected
// order, for the sort) and each plan contains the operator it times.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/rewriter.h"
#include "core/virtual_catalog.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tests/engine/engine_test_util.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    InMemoryDiskManager dm;
    BufferPool pool(&dm, 4096);
    auto tree = BPlusTree::Create(&pool);
    state.ResumeTiming();
    for (int64_t k = 0; k < state.range(0); ++k) {
      benchmark::DoNotOptimize(tree->Insert(k, Rid{static_cast<PageId>(k % 1000), 0}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreePointLookup(benchmark::State& state) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4096);
  auto tree = BPlusTree::Create(&pool);
  const int64_t n = state.range(0);
  for (int64_t k = 0; k < n; ++k) {
    (void)tree->Insert(k, Rid{static_cast<PageId>(k % 1000), 0});
  }
  int64_t key = 0;
  std::vector<Rid> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(tree->ScanEqual(key, &out));
    key = (key + 7919) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreePointLookup)->Arg(10000)->Arg(100000);

void BM_HeapScan(benchmark::State& state) {
  auto db = testutil::MakeBookstore(4096);
  // Widen the dataset: more sales rows.
  for (int64_t s = 300; s < state.range(0); ++s) {
    (void)db->Insert("sale", {Value::Int(s), Value::Int(s % 100), Value::Int(1)});
  }
  auto t = db->GetTable("sale");
  for (auto _ : state) {
    uint64_t rows = 0;
    auto it = (*t)->heap->Begin();
    if (!it.ok()) {
      state.SkipWithError(it.status().ToString().c_str());
      break;
    }
    for (; !it->AtEnd(); (void)it->Next()) ++rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapScan)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_HashJoinExec(benchmark::State& state) {
  auto db = testutil::MakeBookstore(4096);
  BoundQuery q;
  q.tables.push_back(TableAccess("sale", {"sale_id", "book_id"}));
  q.tables.push_back(TableAccess("book", {"book_id", "title"}));
  q.joins.push_back(EquiJoin{0, 1, "book_id", "book_id"});
  q.select_items.emplace_back(Col("sale.sale_id"), AggFunc::kNone, "id");
  DatabaseCatalogView view(db.get());
  auto plan = PlanQuery(q, view);
  for (auto _ : state) {
    auto rows = ExecutePlan(**plan, db.get());
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_HashJoinExec);

void BM_TpcwQueryRewrite(benchmark::State& state) {
  auto schema = BuildTpcwSchema();
  auto workload = BuildTpcwWorkload(*schema);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = (*workload)[i % workload->size()].query;
    auto bound = RewriteQuery(q, schema->object);
    benchmark::DoNotOptimize(bound);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpcwQueryRewrite);

void BM_CostEstimateQuery(benchmark::State& state) {
  // The estimator is the inner loop of LAA (2^m calls) and GAA — its speed
  // bounds the whole planning layer.
  auto schema = BuildTpcwSchema();
  auto data = GenerateTpcwData(*schema, ScaleTiny(), 7);
  LogicalStats stats = data->ComputeStats();
  auto workload = BuildTpcwWorkload(*schema);
  VirtualSchemaCatalog catalog(&schema->object, &stats);
  CostModel model(&catalog);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = (*workload)[i % workload->size()].query;
    auto bound = RewriteQuery(q, schema->object);
    auto plan = PlanQuery(*bound, catalog);
    auto est = model.Estimate(**plan);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CostEstimateQuery);

// --- per-operator timing harness (--json mode) ---

/// Runs per timed plan: each run is one sample of its `ms` and `rows_per_s`.
constexpr size_t kReps = 20;

/// `rows` in lexicographic Value::Compare order.
std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// Plans `q` once, executes it kReps times, timing only the executions,
/// records each run on `row` and prints the median. Returns 1 unless the
/// plan contains a `must_run` node and every run returns exactly `want`,
/// compared outside the timed region: in order when `ordered`, else as
/// sorted row multisets.
int TimeQuery(const char* name, Database* db, const BoundQuery& q, std::vector<Row> want,
              size_t rows_read, bench::BenchJson::Row* row, PlanNode::Kind must_run,
              bool ordered = false) {
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(q, view);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s: plan: %s\n", name, plan.status().ToString().c_str());
    return 1;
  }
  if (testutil::FindPlanNode(plan->get(), must_run) == nullptr) {
    std::fprintf(stderr, "%s: the plan lacks the operator it times:\n%s\n", name,
                 (*plan)->ToString().c_str());
    return 1;
  }
  if (!ordered) want = Sorted(std::move(want));
  row->Text("micro", name);
  row->Count("rows", rows_read);
  int rc = 0;
  std::vector<double> ms;
  for (size_t r = 0; r < kReps; ++r) {
    Stopwatch timer;
    auto got = ExecutePlan(**plan, db);
    const double run_ms = timer.ElapsedSeconds() * 1000.0;
    if (!got.ok()) {
      std::fprintf(stderr, "%s: run %zu: %s\n", name, r, got.status().ToString().c_str());
      rc = 1;
      continue;
    }
    row->Count("out_rows", got->size());
    row->Sample("ms", run_ms);
    row->Sample("rows_per_s", static_cast<double>(rows_read) / (run_ms / 1000.0));
    ms.push_back(run_ms);
    if ((ordered ? std::move(*got) : Sorted(std::move(*got))) != want) {
      std::fprintf(stderr, "%s: run %zu returned the wrong rows\n", name, r);
      rc = 1;
    }
  }
  const double median_ms = bench::Summarize(ms).median;
  std::printf("%-22s %10zu %10zu %10.3f %14.0f\n", name, rows_read, want.size(), median_ms,
              median_ms > 0 ? static_cast<double>(rows_read) / (median_ms / 1000.0) : 0.0);
  return rc;
}

/// `prefix` followed by the decimal digits of `k`.
std::string Tagged(const char* prefix, int64_t k) {
  std::string s = prefix;
  s += std::to_string(k);
  return s;
}

/// t(id, a, b, s) with `rows` rows: row k has a = k % 97, b = k % 13 and
/// s = "s" + k % 31. The pool holds the whole table: the micros time CPU
/// execution cost, not I/O.
Status AddWideTable(Database* db, size_t rows) {
  TableSchema t("t",
                {Column("id", TypeId::kInt64, 0, false), Column("a", TypeId::kInt64),
                 Column("b", TypeId::kInt64), Column("s", TypeId::kVarchar, 16)},
                {"id"});
  PSE_RETURN_NOT_OK(db->CreateTable(t));
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(i);
    Row row{Value::Int(k), Value::Int(k % 97), Value::Int(k % 13),
            Value::Varchar(Tagged("s", k % 31))};
    PSE_RETURN_NOT_OK(db->Insert("t", row).status());
  }
  return Status::OK();
}

/// w(id, a, pad) with `rows` rows: row k has a = k % 100 and a 300-char pad
/// — TPC-W-like wide rows (c_data, i_desc) that a selective query rarely
/// returns.
Status AddPaddedTable(Database* db, size_t rows) {
  TableSchema w("w",
                {Column("id", TypeId::kInt64, 0, false), Column("a", TypeId::kInt64),
                 Column("pad", TypeId::kVarchar, 300)},
                {"id"});
  PSE_RETURN_NOT_OK(db->CreateTable(w));
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(i);
    std::string pad = Tagged("p", k);
    pad.resize(300, 'x');
    Row row{Value::Int(k), Value::Int(k % 100), Value::Varchar(std::move(pad))};
    PSE_RETURN_NOT_OK(db->Insert("w", row).status());
  }
  return Status::OK();
}

/// f(id, fk, v) with `rows` rows (row k: fk = k % `keys`, v = k % 7) and
/// d(did, name) with `keys` rows (row j: name = "n" + j): a fact table and
/// its dimension.
Status AddFactTables(Database* db, size_t rows, size_t keys) {
  TableSchema f("f",
                {Column("id", TypeId::kInt64, 0, false), Column("fk", TypeId::kInt64),
                 Column("v", TypeId::kInt64)},
                {"id"});
  TableSchema d("d",
                {Column("did", TypeId::kInt64, 0, false),
                 Column("name", TypeId::kVarchar, 16)},
                {"did"});
  PSE_RETURN_NOT_OK(db->CreateTable(f));
  PSE_RETURN_NOT_OK(db->CreateTable(d));
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(i);
    Row row{Value::Int(k), Value::Int(k % static_cast<int64_t>(keys)), Value::Int(k % 7)};
    PSE_RETURN_NOT_OK(db->Insert("f", row).status());
  }
  for (size_t j = 0; j < keys; ++j) {
    int64_t k = static_cast<int64_t>(j);
    PSE_RETURN_NOT_OK(
        db->Insert("d", {Value::Int(k), Value::Varchar(Tagged("n", k))}).status());
  }
  return Status::OK();
}

/// Times one plan per batch operator into `json`'s "micros" section.
int RunEngineMicros(bench::BenchJson* json) {
  constexpr size_t kRows = 100000;      // t and f
  constexpr size_t kPadRows = 20000;    // w
  constexpr size_t kKeys = 10000;       // d, and f's distinct fk values
  Database db(16384);
  Status built = AddWideTable(&db, kRows);
  if (built.ok()) built = AddPaddedTable(&db, kPadRows);
  if (built.ok()) built = AddFactTables(&db, kRows, kKeys);
  // The index nested-loop join probes f through its FK.
  if (built.ok()) built = db.CreateIndex("f", "fk");
  if (built.ok()) built = db.AnalyzeAll();
  if (!built.ok()) {
    std::fprintf(stderr, "engine micro setup: %s\n", built.ToString().c_str());
    return 1;
  }
  std::printf("=== engine micro: one plan per operator, median of %zu runs each ===\n"
              "%-22s %10s %10s %10s %14s\n",
              kReps, "plan", "rows", "out-rows", "ms", "rows/s");
  int rc = 0;
  size_t i = 0;

  {  // SELECT id, a+b FROM t WHERE a < 48: about half the rows survive.
    BoundQuery q;
    // Projection pushdown as the rewriter emits it: only referenced columns
    // reach the TableAccess, so the varchar column stays behind.
    TableAccess t("t", {"id", "a", "b"});
    t.filters.push_back(Cmp(CompareOp::kLt, Col("a"), Const(Value::Int(48))));
    q.tables.push_back(std::move(t));
    q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(
        std::make_unique<ArithExpr>(ArithOp::kAdd, Col("t.a"), Col("t.b")),
        AggFunc::kNone, "ab");
    std::vector<Row> want;
    for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
      if (k % 97 < 48) want.push_back({Value::Int(k), Value::Int(k % 97 + k % 13)});
    }
    rc |= TimeQuery("scan_filter_project", &db, q, std::move(want), kRows,
                    &json->At("micros", i++), PlanNode::Kind::kSeqScan);
  }
  {  // SELECT id, pad FROM w WHERE a = 7: 1% of the rows, each 300 chars wide.
    BoundQuery q;
    TableAccess w("w", {"id", "pad"});
    w.filters.push_back(Cmp(CompareOp::kEq, Col("a"), Const(Value::Int(7))));
    q.tables.push_back(std::move(w));
    q.select_items.emplace_back(Col("w.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("w.pad"), AggFunc::kNone, "pad");
    std::vector<Row> want;
    for (int64_t k = 7; k < static_cast<int64_t>(kPadRows); k += 100) {
      std::string pad = Tagged("p", k);
      pad.resize(300, 'x');
      want.push_back({Value::Int(k), Value::Varchar(pad)});
    }
    rc |= TimeQuery("selective_scan", &db, q, std::move(want), kPadRows,
                    &json->At("micros", i++), PlanNode::Kind::kSeqScan);
  }
  {  // SELECT f.id, d.name FROM f JOIN d ON f.fk = d.did: one match per f row.
    BoundQuery q;
    q.tables.push_back(TableAccess("f", {"id", "fk"}));
    q.tables.push_back(TableAccess("d", {"did", "name"}));
    q.joins.push_back(EquiJoin{0, 1, "fk", "did"});
    q.select_items.emplace_back(Col("f.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("d.name"), AggFunc::kNone, "name");
    std::vector<Row> want;
    for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
      want.push_back(
          {Value::Int(k), Value::Varchar(Tagged("n", k % static_cast<int64_t>(kKeys)))});
    }
    rc |= TimeQuery("hash_join", &db, q, std::move(want), kRows + kKeys,
                    &json->At("micros", i++), PlanNode::Kind::kHashJoin);
  }
  {  // SELECT d.did, f.id FROM d JOIN f ON d.did = f.fk WHERE d.did < 25: a
     // selective outer probes f's fk index, 10 matches per probe.
    constexpr int64_t kOuter = 25;
    BoundQuery q;
    TableAccess d("d", {"did"});
    d.filters.push_back(Cmp(CompareOp::kLt, Col("did"), Const(Value::Int(kOuter))));
    q.tables.push_back(std::move(d));
    q.tables.push_back(TableAccess("f", {"id", "fk"}));
    q.joins.push_back(EquiJoin{0, 1, "did", "fk"});
    q.select_items.emplace_back(Col("d.did"), AggFunc::kNone, "did");
    q.select_items.emplace_back(Col("f.id"), AggFunc::kNone, "id");
    std::vector<Row> want;
    for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
      const int64_t fk = k % static_cast<int64_t>(kKeys);
      if (fk < kOuter) want.push_back({Value::Int(fk), Value::Int(k)});
    }
    // Rows read: the outer's (a range of d's key index), then each probe's
    // matches.
    const size_t read = static_cast<size_t>(kOuter) + want.size();
    rc |= TimeQuery("index_nl_join", &db, q, std::move(want), read, &json->At("micros", i++),
                    PlanNode::Kind::kIndexNLJoin);
  }
  {  // SELECT fk, COUNT(*), SUM(v) FROM f GROUP BY fk: 10,000 groups.
    BoundQuery q;
    q.tables.push_back(TableAccess("f", {"fk", "v"}));
    q.group_by.push_back(Col("f.fk"));
    q.select_items.emplace_back(Col("f.fk"), AggFunc::kNone, "fk");
    q.select_items.emplace_back(nullptr, AggFunc::kCountStar, "n");
    q.select_items.emplace_back(Col("f.v"), AggFunc::kSum, "sum_v");
    std::vector<int64_t> count(kKeys, 0), sum(kKeys, 0);
    for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
      ++count[static_cast<size_t>(k) % kKeys];
      sum[static_cast<size_t>(k) % kKeys] += k % 7;
    }
    std::vector<Row> want;
    for (size_t g = 0; g < kKeys; ++g) {
      want.push_back({Value::Int(static_cast<int64_t>(g)), Value::Int(count[g]),
                      Value::Int(sum[g])});
    }
    rc |= TimeQuery("group_by", &db, q, std::move(want), kRows, &json->At("micros", i++),
                    PlanNode::Kind::kAggregate);
  }
  {  // SELECT DISTINCT fk FROM f: 10,000 distinct values.
    BoundQuery q;
    q.tables.push_back(TableAccess("f", {"fk"}));
    q.select_items.emplace_back(Col("f.fk"), AggFunc::kNone, "fk");
    q.select_distinct = true;
    std::vector<Row> want;
    for (size_t g = 0; g < kKeys; ++g) {
      want.push_back({Value::Int(static_cast<int64_t>(g))});
    }
    rc |= TimeQuery("distinct", &db, q, std::move(want), kRows, &json->At("micros", i++),
                    PlanNode::Kind::kDistinct);
  }
  {  // SELECT id, s FROM t ORDER BY s DESC, id: 100,000 rows, string keys
     // with 31 distinct values, so the second key breaks most ties.
    BoundQuery q;
    q.tables.push_back(TableAccess("t", {"id", "s"}));
    q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("t.s"), AggFunc::kNone, "s");
    q.order_by.push_back(OrderKey{1, /*desc=*/true});
    q.order_by.push_back(OrderKey{0, /*desc=*/false});
    std::vector<Row> want;
    for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
      want.push_back({Value::Int(k), Value::Varchar(Tagged("s", k % 31))});
    }
    std::sort(want.begin(), want.end(), [](const Row& x, const Row& y) {
      const int c = x[1].Compare(y[1]);
      return c != 0 ? c > 0 : x[0].Compare(y[0]) < 0;
    });
    rc |= TimeQuery("sort", &db, q, std::move(want), kRows, &json->At("micros", i++),
                    PlanNode::Kind::kSort, /*ordered=*/true);
  }
  return rc;
}

/// Entry point of the --json timing mode.
int RunEngineTiming(const std::string& json_path) {
  bench::BenchJson json("engine_micro");
  int rc = RunEngineMicros(&json);
  if (!json.ok()) rc = 1;
  if (!json.Write(json_path)) rc = 1;
  return rc;
}

}  // namespace
}  // namespace pse

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }
  if (!json_path.empty()) return pse::RunEngineTiming(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

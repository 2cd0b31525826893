// Engine micro-benchmarks: the storage/executor primitives everything above
// is built on — B+ tree inserts/lookups, heap scans, hash joins, and the
// analytical cost estimator itself (which LAA/GAA call thousands of times
// per migration point), via google-benchmark.
//
// Invoked with --json=PATH the binary skips the google-benchmark suite and
// instead times a scan->filter->project plan, checks its output row count,
// and emits BENCH_engine_micro.json for scripts/bench.sh.
#include <benchmark/benchmark.h>

#include <string>

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
    for (auto it = (*t)->heap->Begin(); !it.AtEnd();) {
      ++rows;
      (void)it.Next();
    }
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

// --- scan->filter->project timing harness (--json mode) ---

/// One timed pipeline: the same plan executed `reps` times.
struct PipelineTiming {
  size_t rows = 0;      ///< rows the scan feeds into the pipeline
  size_t out_rows = 0;  ///< rows surviving the filter
  size_t reps = 0;
  double ms = 0;        ///< total wall time over `reps` runs
  double rows_per_s() const {
    return ms > 0 ? static_cast<double>(rows) * static_cast<double>(reps) / (ms / 1000.0)
                  : 0.0;
  }
};

/// Builds t(id, a, b, s) with `rows` rows in an in-memory pool big enough
/// to hold it (the timing targets CPU execution cost, not I/O). Row k has
/// a = k % 97.
std::unique_ptr<Database> MakeWideTable(size_t rows) {
  auto db = std::make_unique<Database>(16384);
  TableSchema t("t",
                {Column("id", TypeId::kInt64, 0, false), Column("a", TypeId::kInt64),
                 Column("b", TypeId::kInt64), Column("s", TypeId::kVarchar, 16)},
                {"id"});
  if (!db->CreateTable(t).ok()) return nullptr;
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = static_cast<int64_t>(i);
    auto s = db->Insert("t", {Value::Int(k), Value::Int(k % 97), Value::Int(k % 13),
                              Value::Varchar("s" + std::to_string(k % 31))});
    if (!s.ok()) return nullptr;
  }
  if (!db->AnalyzeAll().ok()) return nullptr;
  return db;
}

/// SELECT id, a+b FROM t WHERE a < 48 (about half the rows survive), timed
/// over `reps` runs; every run must return the rows with k % 97 < 48.
int RunScanFilterProject(size_t rows, size_t reps, PipelineTiming* out) {
  auto db = MakeWideTable(rows);
  if (db == nullptr) return 1;
  BoundQuery q;
  // Projection pushdown as the rewriter emits it: only referenced columns
  // reach the TableAccess, so the wide varchar column stays behind.
  TableAccess t("t", {"id", "a", "b"});
  t.filters.push_back(Cmp(CompareOp::kLt, Col("a"), Const(Value::Int(48))));
  q.tables.push_back(std::move(t));
  q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
  q.select_items.emplace_back(
      std::make_unique<ArithExpr>(ArithOp::kAdd, Col("t.a"), Col("t.b")), AggFunc::kNone, "ab");
  DatabaseCatalogView view(db.get());
  auto plan = PlanQuery(q, view);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  size_t want_rows = 0;
  for (size_t k = 0; k < rows; ++k) {
    if (k % 97 < 48) ++want_rows;
  }
  int rc = 0;
  out->rows = rows;
  out->out_rows = want_rows;
  out->reps = reps;
  Stopwatch timer;
  for (size_t r = 0; r < reps; ++r) {
    auto got = ExecutePlan(**plan, db.get());
    if (!got.ok() || got->size() != want_rows) {
      std::fprintf(stderr, "engine micro run failed: %s (%zu rows, want %zu)\n",
                   got.ok() ? "row-count mismatch" : got.status().ToString().c_str(),
                   got.ok() ? got->size() : 0, want_rows);
      rc = 1;
    }
  }
  out->ms = timer.ElapsedSeconds() * 1000.0;
  return rc;
}

void WriteEngineJson(const std::string& path, const PipelineTiming& sfp) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"engine_micro\",\n"
               "  \"scan_filter_project\": {\"rows\": %zu, \"out_rows\": %zu, \"reps\": %zu, "
               "\"ms\": %.2f, \"rows_per_s\": %.0f}\n}\n",
               sfp.rows, sfp.out_rows, sfp.reps, sfp.ms, sfp.rows_per_s());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Entry point of the --json timing mode.
int RunEngineTiming(const std::string& json_path) {
  constexpr size_t kRows = 100000;
  constexpr size_t kReps = 20;
  PipelineTiming sfp;
  int rc = RunScanFilterProject(kRows, kReps, &sfp);
  std::printf("=== engine micro: scan->filter->project, %zu rows x %zu ===\n"
              "%-24s %10s %10s %14s\n",
              kRows, kReps, "pipeline", "out-rows", "ms", "rows/s");
  std::printf("%-24s %10zu %10.1f %14.0f\n", "scan-filter-project", sfp.out_rows, sfp.ms,
              sfp.rows_per_s());
  if (!json_path.empty()) WriteEngineJson(json_path, sfp);
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

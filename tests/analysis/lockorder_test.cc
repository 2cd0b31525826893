// Lock-order analysis: seeded-violation fixtures (mirroring the
// seeded-invalid style of the rest of tests/analysis/), offline analysis of
// hand-built acquisition graphs, and — in PROGSCHEMA_LOCKDEP builds — live
// instrumentation checks, including the regression pinning the
// MigrationExecutor copy-batch fix.
//
// The seeded fixtures drive LockRegistry directly (the API is always
// compiled), so they run and detect in every build; only the tests that
// need the latch *hooks* skip without PSE_LOCKDEP.
// LockOrderLive.HooksRecordOnlyInLockdepBuilds runs in both and checks that
// a normal build compiles no hook in.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lockorder.h"
#include "common/lock_registry.h"
#include "common/rw_latch.h"
#include "core/migration_executor.h"
#include "core/rewriter_dml.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "storage/database.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::TableRows;

#ifdef PSE_LOCKDEP
constexpr bool kLockdepEnabled = true;
#else
constexpr bool kLockdepEnabled = false;
#endif

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- seeded violations (any build) ------------------------------------------

TEST(LockOrderSeeded, InvertedTwoTableAcquisitionReportsInversionAndCycle) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  uint32_t src = reg.RegisterClass("zz_src", kLockRankTable, /*allows_io=*/true);
  uint32_t dst = reg.RegisterClass("aa_dst", kLockRankTable, /*allows_io=*/true);

  // Canonical direction: aa_dst before zz_src (same rank, name order).
  reg.PushSite("fixture:forward");
  reg.OnAcquire(dst, LockMode::kShared);
  reg.OnAcquire(src, LockMode::kShared);
  reg.OnRelease(src);
  reg.OnRelease(dst);
  reg.PopSite();

  // Deliberately inverted: zz_src held while aa_dst is acquired. Together
  // the two orders close a cycle in the acquisition graph.
  reg.PushSite("fixture:reversed");
  reg.OnAcquire(src, LockMode::kShared);
  reg.OnAcquire(dst, LockMode::kExclusive);
  reg.OnRelease(dst);
  reg.OnRelease(src);
  reg.PopSite();

  DiagnosticReport report = AnalyzeLockOrder(reg.Snapshot());
  EXPECT_FALSE(report.ok());

  auto inversions = report.WithCode(DiagCode::kLockOrderInversion);
  ASSERT_EQ(inversions.size(), 1u) << report.ToString();
  EXPECT_EQ(inversions[0].location, "lock 'aa_dst'");
  EXPECT_TRUE(Contains(inversions[0].message, "fixture:reversed"));
  EXPECT_TRUE(Contains(inversions[0].message, "'zz_src'"));

  auto cycles = report.WithCode(DiagCode::kLockCycle);
  ASSERT_EQ(cycles.size(), 1u) << report.ToString();
  EXPECT_EQ(cycles[0].location, "cycle [aa_dst, zz_src]");
  EXPECT_TRUE(Contains(cycles[0].message, "aa_dst -> zz_src"));
  EXPECT_TRUE(Contains(cycles[0].message, "zz_src -> aa_dst"));
  reg.ClearEvents();
}

TEST(LockOrderSeeded, SharedToExclusiveUpgradeReported) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  uint32_t u = reg.RegisterClass("upgrade_latch", kLockRankTable, /*allows_io=*/true);

  reg.PushSite("fixture:reader");
  reg.OnAcquire(u, LockMode::kShared);
  reg.PopSite();
  reg.PushSite("fixture:upgrader");
  reg.OnAcquire(u, LockMode::kExclusive);  // the upgrade
  reg.OnRelease(u);
  reg.OnRelease(u);
  reg.PopSite();

  DiagnosticReport report = AnalyzeLockOrder(reg.Snapshot());
  auto upgrades = report.WithCode(DiagCode::kLockUpgrade);
  ASSERT_EQ(upgrades.size(), 1u) << report.ToString();
  EXPECT_EQ(upgrades[0].location, "lock 'upgrade_latch'");
  EXPECT_TRUE(Contains(upgrades[0].message, "fixture:reader"));
  EXPECT_TRUE(Contains(upgrades[0].message, "fixture:upgrader"));
  // An upgrade is not an ordering edge; no cycle should appear.
  EXPECT_TRUE(report.WithCode(DiagCode::kLockCycle).empty());
  reg.ClearEvents();
}

TEST(LockOrderSeeded, RecursiveSharedAcquisitionReported) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  uint32_t r = reg.RegisterClass("recursive_latch", kLockRankTable, /*allows_io=*/true);

  reg.PushSite("fixture:outer");
  reg.OnAcquire(r, LockMode::kShared);
  reg.PopSite();
  reg.PushSite("fixture:inner");
  // Shared->shared self-nesting: deadlocks behind a waiting writer on the
  // writer-preferring SharedMutex (rw_latch.h header comment).
  reg.OnAcquire(r, LockMode::kShared);
  reg.OnRelease(r);
  reg.OnRelease(r);
  reg.PopSite();

  DiagnosticReport report = AnalyzeLockOrder(reg.Snapshot());
  auto recursive = report.WithCode(DiagCode::kLockRecursive);
  ASSERT_EQ(recursive.size(), 1u) << report.ToString();
  EXPECT_EQ(recursive[0].location, "lock 'recursive_latch'");
  EXPECT_TRUE(Contains(recursive[0].message, "fixture:outer"));
  EXPECT_TRUE(Contains(recursive[0].message, "fixture:inner"));
  reg.ClearEvents();
}

TEST(LockOrderSeeded, IoUnderNoIoLatchReported) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  uint32_t n = reg.RegisterClass("noio_latch", kLockRankServing, /*allows_io=*/false);
  uint32_t ok = reg.RegisterClass("io_ok_latch", kLockRankBufferPool, /*allows_io=*/true);

  reg.PushSite("fixture:holder");
  reg.OnAcquire(n, LockMode::kExclusive);
  reg.OnAcquire(ok, LockMode::kExclusive);
  reg.PopSite();
  reg.PushSite("fixture:io");
  reg.OnIo();
  reg.OnRelease(ok);
  reg.OnRelease(n);
  reg.PopSite();

  DiagnosticReport report = AnalyzeLockOrder(reg.Snapshot());
  auto io = report.WithCode(DiagCode::kLockHeldAcrossIo);
  // Only the no-I/O class fires; io_ok_latch is allowed to cover I/O.
  ASSERT_EQ(io.size(), 1u) << report.ToString();
  EXPECT_EQ(io[0].location, "lock 'noio_latch'");
  EXPECT_TRUE(Contains(io[0].message, "fixture:holder"));
  EXPECT_TRUE(Contains(io[0].message, "fixture:io"));
  reg.ClearEvents();
}

TEST(LockOrderSeeded, TryAcquireRecordsNoEdgesOrViolations) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  uint32_t hi = reg.RegisterClass("try_hi", kLockRankBufferPool, /*allows_io=*/true);
  uint32_t lo = reg.RegisterClass("try_lo", kLockRankCatalog, /*allows_io=*/true);

  reg.OnAcquire(hi, LockMode::kExclusive);
  // Out-of-rank, but a successful trylock cannot close a wait cycle.
  reg.OnAcquire(lo, LockMode::kExclusive, /*try_acquire=*/true);
  reg.OnRelease(lo);
  reg.OnRelease(hi);

  LockOrderGraph g = reg.Snapshot();
  EXPECT_TRUE(g.violations.empty());
  EXPECT_TRUE(g.edges.empty());
  EXPECT_TRUE(AnalyzeLockOrder(g).ok());
  reg.ClearEvents();
}

// --- offline analysis of hand-built graphs ----------------------------------

TEST(LockOrderOffline, HandBuiltThreeLockCycleDetected) {
  LockOrderGraph g;
  g.classes = {
      {"alpha", 10, true},
      {"beta", 20, true},
      {"gamma", 30, true},
  };
  auto edge = [&](size_t from, size_t to, const char* fs, const char* ts) {
    LockEdge e;
    e.from = from;
    e.to = to;
    e.from_site = fs;
    e.to_site = ts;
    e.count = 1;
    g.edges.push_back(e);
  };
  edge(0, 1, "siteA", "siteB");  // alpha -> beta: ascending, fine
  edge(1, 2, "siteB", "siteC");  // beta -> gamma: ascending, fine
  edge(2, 0, "siteC", "siteA");  // gamma -> alpha: inverted, closes the cycle

  DiagnosticReport report = AnalyzeLockOrder(g);
  EXPECT_FALSE(report.ok());

  // No runtime violations were recorded, so the inversion must be derived
  // from the edge itself.
  auto inversions = report.WithCode(DiagCode::kLockOrderInversion);
  ASSERT_EQ(inversions.size(), 1u) << report.ToString();
  EXPECT_EQ(inversions[0].location, "lock 'alpha'");
  EXPECT_TRUE(Contains(inversions[0].message, "siteC"));

  auto cycles = report.WithCode(DiagCode::kLockCycle);
  ASSERT_EQ(cycles.size(), 1u) << report.ToString();
  EXPECT_EQ(cycles[0].location, "cycle [alpha, beta, gamma]");
  EXPECT_TRUE(Contains(cycles[0].message, "alpha -> beta"));
  EXPECT_TRUE(Contains(cycles[0].message, "beta -> gamma"));
  EXPECT_TRUE(Contains(cycles[0].message, "gamma -> alpha"));
}

TEST(LockOrderOffline, CanonicalGraphIsCleanAndRendersToDot) {
  LockOrderGraph g = CanonicalLockGraph();
  DiagnosticReport report = AnalyzeLockOrder(g);
  EXPECT_TRUE(report.ok()) << report.ToString();

  std::string dot = LockGraphToDot(g);
  EXPECT_TRUE(Contains(dot, "digraph lockorder"));
  EXPECT_TRUE(Contains(dot, "\"catalog\""));
  EXPECT_TRUE(Contains(dot, "\"bufferpool\""));
  EXPECT_TRUE(Contains(dot, "no-io"));  // servingschema renders its flag
  EXPECT_FALSE(Contains(dot, "color=red"));
}

TEST(LockOrderOffline, DotHighlightsInvertedEdges) {
  LockOrderGraph g;
  g.classes = {{"low", 10, true}, {"high", 40, true}};
  // high -> low: inverted
  g.edges.push_back(LockEdge{/*from=*/1, /*to=*/0, "s1", "s2", /*count=*/3});
  std::string dot = LockGraphToDot(g);
  EXPECT_TRUE(Contains(dot, "color=red"));
  EXPECT_TRUE(Contains(dot, "label=\"3\""));
}

// --- live instrumentation (PROGSCHEMA_LOCKDEP builds) ------------------------

TEST(LockOrderLive, SharedMutexHooksFlagRecursiveSharedAcquisition) {
  if (!kLockdepEnabled) GTEST_SKIP() << "built without PROGSCHEMA_LOCKDEP";
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();
  SharedMutex m;
  m.LockdepRegister("live_recursive_latch", kLockRankTable, /*allows_io=*/true);
  m.lock_shared();
  // With no writer waiting this succeeds, but lockdep must flag it: behind
  // a waiting writer the same nesting deadlocks.
  m.lock_shared();
  m.unlock_shared();
  m.unlock_shared();

  DiagnosticReport report = AnalyzeLockOrder(reg.Snapshot());
  auto recursive = report.WithCode(DiagCode::kLockRecursive);
  ASSERT_EQ(recursive.size(), 1u) << report.ToString();
  EXPECT_EQ(recursive[0].location, "lock 'live_recursive_latch'");
  reg.ClearEvents();
}

// Regression for the MigrationExecutor copy-batch fix: the split targets
// ("m7a_user"/"m7b_user") sort *before* the source ("user"), so the old code
// — destination inserts under the source's shared batch latch — acquired
// table latches against the sorted-name order. The fix stages each batch and
// inserts after the source latch drops; the acquisition graph must therefore
// contain no table->table edge at all from the copy path. A combine copied
// with the write router attached probes the parent's key index per batch;
// it too takes the parent's latch only after the source's drops.
TEST(LockOrderLive, CopyBatchHoldsOneTableLatchAtATime) {
  if (!kLockdepEnabled) GTEST_SKIP() << "built without PROGSCHEMA_LOCKDEP";
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();

  auto bs = Bookstore::Make();
  auto data = bs->MakeData(5, 8, 60);
  Database db(512);
  ASSERT_TRUE(data->Materialize(&db, bs->source).ok());
  PhysicalSchema schema = bs->source;

  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 7;
  op.split_moved = {bs->u_addr};
  op.split_moved_anchor = bs->user;

  MigrationExecutor exec(&db, data.get());
  MigrationOptions opts;
  opts.batch_rows = 16;  // several batches over 60 user rows
  exec.set_options(std::move(opts));
  auto io = exec.Apply(op, &schema);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_EQ(TableRows(&db, "m7a_user").size(), 60u);

  MigrationOperator combine;
  combine.kind = OperatorKind::kCombineTable;
  combine.id = 8;
  combine.combine_left_rep = bs->b_title;
  combine.combine_right_rep = bs->a_name;
  DmlRouter router(&db);
  MigrationOptions routed;
  routed.batch_rows = 16;  // several batches over 40 book rows
  routed.dml_router = &router;
  exec.set_options(std::move(routed));
  io = exec.Apply(combine, &schema);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_EQ(TableRows(&db, OperatorResultName(combine, bs->logical)).size(), 40u);

  LockOrderGraph g = reg.Snapshot();
  EXPECT_GT(g.acquisitions, 0u);
  for (const LockViolation& v : g.violations) {
    ADD_FAILURE() << "unexpected violation: " << v.ToString();
  }
  for (const LockEdge& e : g.edges) {
    bool table_to_table = g.classes[e.from].rank == kLockRankTable &&
                          g.classes[e.to].rank == kLockRankTable;
    EXPECT_FALSE(table_to_table) << "copy path nested table latches: "
                                 << g.classes[e.from].name << " (" << e.from_site << ") -> "
                                 << g.classes[e.to].name << " (" << e.to_site << ")";
  }
  DiagnosticReport report = AnalyzeLockOrder(g);
  EXPECT_TRUE(report.ok()) << report.ToString();
  reg.ClearEvents();
}

TEST(LockOrderLive, MigrationRecordsCanonicalEdgesOnly) {
  if (!kLockdepEnabled) GTEST_SKIP() << "built without PROGSCHEMA_LOCKDEP";
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();

  auto bs = Bookstore::Make();
  auto data = bs->MakeData(4, 6, 40);
  Database db(512);
  ASSERT_TRUE(data->Materialize(&db, bs->source).ok());
  PhysicalSchema schema = bs->source;
  MigrationExecutor exec(&db, data.get());
  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 7;
  op.split_moved = {bs->u_addr};
  op.split_moved_anchor = bs->user;
  ASSERT_TRUE(exec.Apply(op, &schema).ok());

  LockOrderGraph g = reg.Snapshot();
  // Every observed edge must descend the hierarchy: (rank, name) strictly
  // ascending from source to target.
  for (const LockEdge& e : g.edges) {
    const LockClassDesc& from = g.classes[e.from];
    const LockClassDesc& to = g.classes[e.to];
    EXPECT_TRUE(std::tie(from.rank, from.name) < std::tie(to.rank, to.name))
        << from.name << " -> " << to.name;
  }
  DiagnosticReport report = AnalyzeLockOrder(g);
  EXPECT_TRUE(report.ok());
  // A violation-free instrumented run earns the LOCK_GRAPH_CLEAN note (and
  // only that — the success note must not reuse a violation code, or tooling
  // that greps for LOCK_CYCLE would flag clean runs).
  EXPECT_EQ(report.WithCode(DiagCode::kLockGraphClean).size(), 1u);
  EXPECT_TRUE(report.WithCode(DiagCode::kLockCycle).empty());
  reg.ClearEvents();
}

// The hooks compile only under PROGSCHEMA_LOCKDEP, and a normal build pays
// nothing for them: pse::Mutex is exactly a std::mutex, and a migration
// served by live sessions records no acquisition and no edge. A lockdep
// build records them.
#ifndef PSE_LOCKDEP
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "pse::Mutex carries lockdep state in a build without PROGSCHEMA_LOCKDEP");
#endif

TEST(LockOrderLive, HooksRecordOnlyInLockdepBuilds) {
  LockRegistry& reg = LockRegistry::Instance();
  reg.ClearEvents();

  auto bs = Bookstore::Make();
  auto data = bs->MakeData(4, 6, 40);
  auto schedule = PlanFleetSchedule(bs->source, bs->object);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ShardOptions shard_options;
  shard_options.pool_pages = 512;
  auto shard = TenantShard::Create(0, bs->source, data.get(), std::move(shard_options));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  SharedPlanCache cache;
  FleetScheduler fleet(std::move(*schedule), &cache);
  fleet.AddShard(std::move(*shard));

  std::vector<WorkloadQuery> queries;
  LogicalQuery book;
  book.name = "old-book-author";
  book.anchor = bs->book;
  book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
  book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
  queries.emplace_back(std::move(book), /*is_old=*/true);
  FleetOptions options;
  options.migration_lanes = 1;
  options.serve_lanes = 2;
  options.min_queries_per_lane = 8;
  options.migration.batch_rows = 8;
  auto metrics = fleet.Run(queries, {1.0}, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->errors, 0u);
  EXPECT_GT(metrics->queries, 0u);

  LockOrderGraph g = reg.Snapshot();
  if (kLockdepEnabled) {
    EXPECT_GT(g.acquisitions, 0u);
  } else {
    EXPECT_EQ(g.acquisitions, 0u) << "lockdep hooks ran in a build without PROGSCHEMA_LOCKDEP";
    EXPECT_TRUE(g.edges.empty());
  }
  reg.ClearEvents();
}

}  // namespace
}  // namespace pse

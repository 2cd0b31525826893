// Concurrent multi-version serving under stress: N reader threads execute a
// mixed old/new-version query load through the Rewriter while the
// MigrationExecutor applies batched operators on another thread. Built for
// the ThreadSanitizer leg (scripts/check.sh --tsan) but meaningful under
// any sanitizer: every successful read must equal the serial oracle
// (the rewriter invariant says any valid intermediate schema answers
// identically), and no reader may fail with anything but BindError. A
// one-shard fleet adds writer lanes to the serve loop across a live
// migration. A read-consistency scenario races scans against
// row-relocating UPDATEs: every scan must see each row exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/lock_registry.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/rewriter.h"
#include "core/serving.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "tests/common/lockdep_clean_scope.h"
#include "tests/common/run_lanes.h"
#include "tests/common/test_db_builder.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::LockdepCleanScope;
using testutil::RunLanes;
using testutil::SameRows;
using testutil::SortRows;

/// Rewrites + executes `query` on `schema` over `db`. BindError (the query is
/// not servable on this intermediate schema) comes back as nullopt; any other
/// failure sets `*hard_error`.
std::optional<std::vector<Row>> TryRun(Database* db, const LogicalQuery& query,
                                       const PhysicalSchema& schema, bool* hard_error) {
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  if (!bound.ok()) {
    if (!bound.status().IsBindError()) *hard_error = true;
    return std::nullopt;
  }
  DatabaseCatalogView view(db);
  auto plan = PlanQuery(*bound, view);
  if (!plan.ok()) {
    *hard_error = true;
    return std::nullopt;
  }
  auto rows = ExecutePlan(**plan, db);
  if (!rows.ok()) {
    *hard_error = true;
    return std::nullopt;
  }
  return SortRows(std::move(*rows));
}

class ServingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(6, 9, 80);

    // Old-version queries over book x author and user; a new-version query
    // needing the not-yet-created b_abstract (unservable early on).
    LogicalQuery book;
    book.name = "old-book-author";
    book.anchor = bs_->book;
    book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
    queries_.emplace_back(std::move(book), /*is_old=*/true);

    LogicalQuery user;
    user.name = "old-user";
    user.anchor = bs_->user;
    user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
    user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
    queries_.emplace_back(std::move(user), /*is_old=*/true);

    LogicalQuery abstract_q;
    abstract_q.name = "new-abstract";
    abstract_q.anchor = bs_->book;
    abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
    abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
    queries_.emplace_back(std::move(abstract_q), /*is_old=*/false);

    // Serial oracle: every query on the fully-migrated object schema.
    Database oracle_db(1024);
    ASSERT_TRUE(data_->Materialize(&oracle_db, bs_->object).ok());
    ASSERT_TRUE(oracle_db.AnalyzeAll().ok());
    for (const WorkloadQuery& wq : queries_) {
      bool hard = false;
      auto rows = TryRun(&oracle_db, wq.query, bs_->object, &hard);
      ASSERT_TRUE(rows.has_value() && !hard) << wq.query.name;
      oracle_.push_back(std::move(*rows));
    }

    auto opset = ComputeOperatorSet(bs_->source, bs_->object);
    ASSERT_TRUE(opset.ok()) << opset.status().ToString();
    opset_ = std::move(*opset);
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::vector<WorkloadQuery> queries_;
  std::vector<std::vector<Row>> oracle_;
  OperatorSet opset_;
};

TEST_F(ServingStressTest, ReadersMatchSerialOracleDuringMigration) {
  constexpr size_t kReaders = 4;
  LockdepCleanScope lockdep;

  Database db(1024);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  PhysicalSchema current = bs_->source;
  ServingSchema serving(current);

  MigrationExecutor exec(&db, data_.get());
  MigrationOptions opts;
  opts.batch_rows = 8;  // many small batches -> many latch handoffs
  opts.on_publish = [&](const PhysicalSchema& s) { serving.Publish(s); };
  exec.set_options(std::move(opts));

  auto topo = opset_.TopologicalOrder();
  ASSERT_TRUE(topo.ok());

  std::atomic<bool> stop{false};
  Status migrate_status;
  // Per-lane tallies; gtest assertions are not thread-safe, so workers only
  // count and the main thread asserts after the join.
  struct Tally {
    uint64_t reads = 0, unservable = 0, mismatches = 0, hard_errors = 0;
  };
  std::vector<Tally> tallies(kReaders);

  RunLanes(kReaders + 1, [&](size_t lane) {
    if (lane == kReaders) {  // migration lane
      for (int op : *topo) {
        auto io = exec.Apply(opset_.ops[static_cast<size_t>(op)], &current);
        if (!io.ok()) {
          migrate_status = io.status();
          break;
        }
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    Tally& t = tallies[lane];
    std::mt19937_64 rng(1234 + lane);
    // Keep reading a little past the finish so post-migration reads are
    // exercised through the same path.
    while (!stop.load(std::memory_order_acquire) || t.reads + t.unservable < 8) {
      size_t q = rng() % queries_.size();
      std::shared_lock<SharedMutex> schema_lock(db.schema_latch());
      std::shared_ptr<const PhysicalSchema> snapshot = serving.Get();
      bool hard = false;
      auto rows = TryRun(&db, queries_[q].query, *snapshot, &hard);
      if (hard) {
        ++t.hard_errors;
        continue;
      }
      if (!rows.has_value()) {
        ++t.unservable;
        continue;
      }
      ++t.reads;
      if (!SameRows(*rows, oracle_[q])) ++t.mismatches;
    }
  });

  ASSERT_TRUE(migrate_status.ok()) << migrate_status.ToString();
  uint64_t reads = 0;
  for (const Tally& t : tallies) {
    EXPECT_EQ(t.hard_errors, 0u);
    EXPECT_EQ(t.mismatches, 0u);
    reads += t.reads;
  }
  EXPECT_GT(reads, 0u);

  // The migrated database itself must now equal the oracle on every query.
  ASSERT_TRUE(db.AnalyzeAll().ok());
  for (size_t q = 0; q < queries_.size(); ++q) {
    bool hard = false;
    auto rows = TryRun(&db, queries_[q].query, current, &hard);
    ASSERT_TRUE(rows.has_value() && !hard) << queries_[q].query.name;
    EXPECT_TRUE(SameRows(*rows, oracle_[q])) << queries_[q].query.name;
  }
}

TEST_F(ServingStressTest, WriterLanesStayCleanAcrossALiveMigration) {
  // The write half of the serve mix on a one-shard fleet: lanes issue random
  // DML from BOTH application versions through the shard's DmlRouter while
  // the migration copies and publishes underneath them (the router
  // dual-applies whatever lands on a live frontier). Unservable write
  // windows — glossary DML before the combine, by design — must drain into
  // `unservable`, never `errors`, and the whole scenario must leave lockdep
  // clean.
  LockdepCleanScope lockdep;
  auto schedule = PlanFleetSchedule(bs_->source, bs_->object);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ShardOptions shard_options;
  shard_options.pool_pages = 1024;
  auto shard = TenantShard::Create(0, bs_->source, data_.get(), std::move(shard_options));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  SharedPlanCache cache;
  FleetScheduler fleet(std::move(*schedule), &cache);
  fleet.AddShard(std::move(*shard));
  Database* db = fleet.shard(0)->db();
  DmlRouter* router = fleet.shard(0)->router();

  std::vector<VersionTable> tables = VersionTablesOf(bs_->source);
  {
    std::vector<VersionTable> object_tables = VersionTablesOf(bs_->object);
    tables.insert(tables.end(), object_tables.begin(), object_tables.end());
  }
  const LogicalSchema& lg = bs_->logical;
  FleetOptions options;
  options.migration_lanes = 1;
  options.serve_lanes = 4;
  options.min_queries_per_lane = 12;
  options.write_fraction = 0.35;
  options.make_write = [&tables, &lg](size_t, uint64_t i, std::mt19937_64& rng) {
    LogicalDml dml;
    dml.table = tables[rng() % tables.size()];
    uint64_t roll = rng() % 10;
    dml.kind = roll < 5 ? DmlKind::kInsert : roll < 8 ? DmlKind::kUpdate : DmlKind::kDelete;
    // Early writes hit seeded rows (both sides of a frontier); the tail of
    // each lane appends fresh keys.
    dml.key = static_cast<int64_t>(i < 8 ? rng() % 90 : 1000 + rng() % 500);
    if (dml.kind != DmlKind::kDelete) {
      for (AttrId a : dml.table.attrs) {
        if (rng() % 2 != 0) continue;
        dml.set_attrs.push_back(a);
        const LogicalAttribute& attr = lg.attr(a);
        if (attr.references.has_value() || attr.type == TypeId::kInt64) {
          dml.set_values.push_back(Value::Int(static_cast<int64_t>(rng() % 6)));
        } else if (attr.type == TypeId::kDouble) {
          dml.set_values.push_back(Value::Double(static_cast<double>(rng() % 100) / 4.0));
        } else {
          dml.set_values.push_back(Value::Varchar("w" + std::to_string(rng() % 1000)));
        }
      }
    }
    return dml;
  };
  options.migration.batch_rows = 8;
  std::vector<double> freqs = {10, 10, 5};
  auto metrics = fleet.Run(queries_, freqs, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->errors, 0u);
  EXPECT_GT(metrics->queries, 0u);
  EXPECT_GT(metrics->writes, 0u);
  EXPECT_LE(metrics->unservable_writes, metrics->unservable);
  EXPECT_GT(metrics->throughput_qps, 0.0);
  EXPECT_GT(router->stats().statements, 0u);
  EXPECT_FALSE(router->attached()) << "migration left the router attached";

  // Split integrity after the storm: whatever the writers did, the two
  // user-anchored fragments of the migrated schema (the executor names its
  // targets, so find them by anchor) must hold exactly the same key set —
  // the fan-out writes both fragments or neither.
  const PhysicalSchema current = fleet.shard(0)->CurrentSchema();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  std::vector<std::string> user_fragments;
  for (const PhysicalTable& t : current.tables()) {
    if (t.anchor == bs_->user) user_fragments.push_back(t.name);
  }
  ASSERT_EQ(user_fragments.size(), 2u);
  auto keys_of = [&](const std::string& table) {
    std::vector<Value> keys;
    for (const Row& r : testutil::TableRows(db, table)) keys.push_back(r[0]);
    return keys;  // TableRows sorts; the anchor key is column 0
  };
  std::vector<Value> gen_keys = keys_of(user_fragments[0]);
  std::vector<Value> rest_keys = keys_of(user_fragments[1]);
  ASSERT_EQ(gen_keys.size(), rest_keys.size());
  for (size_t i = 0; i < gen_keys.size(); ++i) {
    EXPECT_EQ(gen_keys[i].Compare(rest_keys[i]), 0)
        << user_fragments[0] << "/" << user_fragments[1] << " key sets diverge at index " << i;
  }
  {
    std::shared_lock<SharedMutex> schema_lock(db->schema_latch());
    for (size_t i = 0; i < tables.size(); ++i) {
      LogicalDml probe;
      probe.kind = DmlKind::kInsert;
      probe.table = tables[i];
      probe.key = 20000 + static_cast<int64_t>(i);
      EXPECT_TRUE(router->Execute(probe, current).ok()) << tables[i].name;
    }
  }
}

// A router's counters are read while its statements run: benchmark/ reads
// them from its driver thread while clients write. One lane executes
// kStatements inserts under the shared catalog latch, as callers must; the
// other reads stats() until it has seen every statement. The counters only
// grow, and the reader ends on the writer's totals.
TEST_F(ServingStressTest, RouterStatsAreReadWhileStatementsRun) {
  constexpr uint64_t kStatements = 2000;
  LockdepCleanScope lockdep;
  Database db(1024);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  DmlRouter router(&db);
  const std::vector<VersionTable> tables = VersionTablesOf(bs_->source);
  std::atomic<bool> writer_done{false};
  Status write_status;
  uint64_t reads = 0;
  uint64_t seen_statements = 0;
  uint64_t seen_writes = 0;
  bool monotone = true;
  RunLanes(2, [&](size_t lane) {
    if (lane == 0) {
      for (uint64_t i = 0; i < kStatements && write_status.ok(); ++i) {
        LogicalDml dml;
        dml.kind = DmlKind::kInsert;
        dml.table = tables[i % tables.size()];
        dml.key = 100000 + static_cast<int64_t>(i);
        std::shared_lock<SharedMutex> schema_lock(db.schema_latch());
        write_status = router.Execute(dml, bs_->source);
      }
      writer_done.store(true, std::memory_order_release);
      return;
    }
    while (true) {
      const bool done = writer_done.load(std::memory_order_acquire);
      const uint64_t statements = router.stats().statements;
      const uint64_t writes = router.stats().fragment_writes;
      ++reads;
      if (statements < seen_statements || writes < seen_writes) monotone = false;
      seen_statements = statements;
      seen_writes = writes;
      if (statements == kStatements || done) break;
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_TRUE(monotone) << "a counter went backwards";
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(seen_statements, kStatements);
  EXPECT_GE(seen_writes, kStatements);  // every insert writes a row
  EXPECT_EQ(router.stats().statements, kStatements);
}

TEST_F(ServingStressTest, WritersDoNotStarveBehindAReaderStream) {
  // Regression for the glibc shared_mutex starvation that motivated
  // common/rw_latch.h: a tight release/re-acquire reader loop must not keep
  // an exclusive acquisition (the migration's quiesce) waiting forever.
  LockdepCleanScope lockdep;
  Database db(256);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> exclusive_grants{0};
  RunLanes(4, [&](size_t lane) {
    if (lane == 0) {
      for (int i = 0; i < 50; ++i) {
        std::unique_lock<SharedMutex> w(db.schema_latch());
        exclusive_grants.fetch_add(1, std::memory_order_relaxed);
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    while (!stop.load(std::memory_order_acquire)) {
      std::shared_lock<SharedMutex> r(db.schema_latch());
    }
  });
  EXPECT_EQ(exclusive_grants.load(), 50u);
}

// Read consistency: an UPDATE that grows a row moves it —
// TableHeap::Update clears the slot and re-inserts the row at the heap
// tail. A scan that re-took its table latch per batch could read an id in
// an early batch and again at the tail after the move. ExecutePlan holds
// the shared table latch for the whole execution, so every answer must
// hold each of the 5,000 ids exactly once.
TEST(ReadConsistencyTest, ScansSeeEachRowOnceWhileUpdatesRelocateRows) {
  constexpr int64_t kRows = 5000;
  constexpr int64_t kUpdatedIds = 1000;
  constexpr size_t kScans = 200;
  // Every round appends 1,000 relocated rows to the heap; the cap bounds its
  // growth if the scans run slowly (values stay well under VARCHAR(400)).
  constexpr size_t kMaxRounds = 300;
  LockdepCleanScope lockdep;
  Database db(1024);
  TableSchema schema(
      "t", {Column("id", TypeId::kInt64, 0, false), Column("s", TypeId::kVarchar, 400)},
      {"id"});
  ASSERT_TRUE(db.CreateTable(schema).ok());
  std::vector<Rid> rids;
  for (int64_t id = 0; id < kRows; ++id) {
    auto rid = db.Insert("t", {Value::Int(id), Value::Varchar("x")});
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(*rid);
  }
  ASSERT_TRUE(db.AnalyzeAll().ok());
  // SELECT id FROM t, planned once: planning reads the statistics the
  // writer invalidates, execution does not.
  BoundQuery q;
  q.tables.emplace_back("t", std::vector<std::string>{"id"});
  q.select_items.emplace_back(Col("t.id"), AggFunc::kNone, "id");
  DatabaseCatalogView view(&db);
  auto plan = PlanQuery(q, view);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  size_t scans = 0;
  std::atomic<bool> stop{false};
  uint64_t updates = 0;
  Status write_status;
  uint64_t bad_scans = 0;
  Status read_status;
  RunLanes(2, [&](size_t lane) {
    if (lane == 0) {
      // Round r gives ids 0-999 values of r + 2 characters, one more than
      // round r - 1, so every update relocates its row.
      for (size_t round = 0; round < kMaxRounds && !stop.load(); ++round) {
        const std::string s(round + 2, 'u');
        for (int64_t id = 0; id < kUpdatedIds; ++id) {
          auto rid = db.Update("t", rids[static_cast<size_t>(id)],
                               {Value::Int(id), Value::Varchar(s)});
          if (!rid.ok()) {
            write_status = rid.status();
            stop.store(true);
            return;
          }
          rids[static_cast<size_t>(id)] = *rid;
          ++updates;
        }
      }
      return;
    }
    for (size_t i = 0; i < kScans; ++i) {
      std::shared_lock<SharedMutex> schema_lock(db.schema_latch());
      auto rows = ExecutePlan(**plan, &db);
      if (!rows.ok()) {
        read_status = rows.status();
        break;
      }
      std::unordered_set<int64_t> ids;
      for (const Row& row : *rows) {
        if (row[0].AsInt() >= 0 && row[0].AsInt() < kRows) ids.insert(row[0].AsInt());
      }
      if (rows->size() != static_cast<size_t>(kRows) || ids.size() != rows->size()) {
        ++bad_scans;
      }
      ++scans;
    }
    stop.store(true);
  });

  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(scans, kScans);
  EXPECT_GE(updates, static_cast<uint64_t>(kUpdatedIds))
      << "the writer finished no round of relocating updates";
  EXPECT_EQ(bad_scans, 0u) << "scans (of " << kScans
                           << ") that did not return each of the 5000 ids exactly once";
}

}  // namespace
}  // namespace pse

// The live copy: with the write router attached, every copy batch re-seeks
// its source at the journal frontier and finds a combine's parents through
// the parent key's B+ tree. The router-less copy, which hashes the parent
// table once, is the reference: both paths must build the same rows in the
// same heap order, on every step of the TPC-W fleet trajectory and on the
// bookstore fixture with NULL and dangling FKs. The routed copy's page
// fetches per copied row must stay flat as the table grows. An empty source
// must copy cleanly, and a source or parent page that cannot be read must
// fail the copy loudly, leave the source whole, and resume or re-apply to
// the unfaulted rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/migration_executor.h"
#include "core/rewriter_dml.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"
#include "storage/disk_manager.h"
#include "tests/common/test_db_builder.h"
#include "tests/core/tpcw_trajectory.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::HeapRows;
using testutil::SameRows;

/// Names of the tables of `a` that `b` lacks: for (after, before) of one
/// operator, the tables it builds; for (before, after), its sources.
std::vector<std::string> TablesOnlyIn(const PhysicalSchema& a, const PhysicalSchema& b) {
  std::vector<std::string> out;
  for (const PhysicalTable& t : a.tables()) {
    if (!b.TableByName(t.name).ok()) out.push_back(t.name);
  }
  return out;
}

/// Deletes every row of `table`.
void EmptyTable(Database* db, const std::string& table) {
  std::vector<Rid> rids;
  auto info = db->GetTable(table);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto it = (*info)->heap->Begin();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  while (!it->AtEnd()) {
    rids.push_back(it->rid());
    ASSERT_TRUE(it->Next().ok());
  }
  for (const Rid& rid : rids) {
    ASSERT_TRUE(db->Delete(table, rid).ok());
  }
}

/// Rows, in heap order, of each table the operator from `before` to `after`
/// built.
std::vector<std::vector<Row>> BuiltRows(Database* db, const PhysicalSchema& before,
                                        const PhysicalSchema& after) {
  std::vector<std::vector<Row>> out;
  for (const std::string& t : TablesOnlyIn(after, before)) out.push_back(HeapRows(db, t));
  return out;
}

void ExpectSameTables(const std::vector<std::vector<Row>>& got,
                      const std::vector<std::vector<Row>>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameRows(got[i], want[i]))
        << what << ": table " << i << " has " << got[i].size() << " rows, want "
        << want[i].size();
  }
}

/// Walks `schedule` over `data` twice, with the same pool and batch size: a
/// TenantShard's AdvanceOneOp (write router attached) and
/// MigrationExecutor::Apply without a router. After every step the tables
/// the step built must be equal row for row, in heap order.
void ExpectRoutedCopyMatchesRouterless(const FleetSchedule& schedule,
                                       const LogicalDatabase& data, size_t pool_pages,
                                       uint64_t batch_rows) {
  ShardOptions shard_options;
  shard_options.pool_pages = pool_pages;
  auto shard = TenantShard::Create(0, schedule.at(0), &data, std::move(shard_options));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  Database plain(pool_pages);
  ASSERT_TRUE(data.Materialize(&plain, schedule.at(0)).ok());
  ASSERT_TRUE(plain.AnalyzeAll().ok());
  MigrationOptions options;
  options.batch_rows = batch_rows;
  MigrationExecutor exec(&plain, &data);
  exec.set_options(options);
  PhysicalSchema schema = schedule.at(0);
  for (size_t s = 0; s < schedule.steps(); ++s) {
    const std::string step = "step " + std::to_string(s) + " " +
                             schedule.ops[s].ToString(*schedule.at(0).logical());
    Status routed = (*shard)->AdvanceOneOp(schedule, options);
    ASSERT_TRUE(routed.ok()) << step << ": " << routed.ToString();
    auto io = exec.Apply(schedule.ops[s], &schema);
    ASSERT_TRUE(io.ok()) << step << ": " << io.status().ToString();
    ExpectSameTables(BuiltRows((*shard)->db(), schedule.at(s), schedule.at(s + 1)),
                     BuiltRows(&plain, schedule.at(s), schedule.at(s + 1)), step);
  }
}

TEST(LiveCopy, RoutedCopyMatchesTheRouterlessCopyOnTheTpcwTrajectory) {
  // tenant-large's shape: 3,000 items and 6,000 customers in 160 pool pages;
  // batches of 256 rows, so every copy spans many batches.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = GenerateTpcwData(*tpcw, TpcwScale{"3000 items / 6000 customers", 3000, 6000}, 3);
  ExpectRoutedCopyMatchesRouterless(*schedule, *data, 160, 256);
}

TEST(LiveCopy, RoutedCopyMatchesTheRouterlessCopyWithNullAndDanglingFks) {
  // The bookstore trajectory combines book x author. Some books reference
  // no author (NULL FK) and some an author that does not exist; both must
  // come out NULL-padded on both paths.
  auto bs = Bookstore::Make();
  auto schedule = PlanFleetSchedule(bs->source, bs->object);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = bs->MakeData(6, 9, 70);
  for (int64_t b = 1000; b < 1040; ++b) {
    const Value author = b % 2 == 0 ? Value::Null(TypeId::kInt64) : Value::Int(500 + b);
    ASSERT_TRUE(data->AddRow(bs->book, {Value::Int(b), Value::Varchar("orphan"),
                                        Value::Double(1.0), author, Value::Varchar("none")})
                    .ok());
  }
  ExpectRoutedCopyMatchesRouterless(*schedule, *data, 32, 7);
}

TEST(LiveCopy, RoutedCombineOnAVarcharKeyMatchesTheRouterlessCopy) {
  // Only BIGINT columns get a B+ tree, so a routed copy finds the parents
  // of a VARCHAR key by one scan of the parent table per batch. Two
  // fragments of a VARCHAR-keyed entity, one lacking a third of the keys,
  // are combined with and without a router.
  LogicalSchema L;
  EntityId cat = L.AddEntity("cat", "c_name", TypeId::kVarchar, 12);
  AttrId c_desc = *L.AddAttribute(cat, "c_desc", TypeId::kVarchar, 24);
  AttrId c_rank = *L.AddAttribute(cat, "c_rank", TypeId::kInt64);
  PhysicalSchema source(&L);
  ASSERT_TRUE(source.AddTable("cat_desc", cat, {c_desc}).ok());
  ASSERT_TRUE(source.AddTable("cat_rank", cat, {c_rank}).ok());
  MigrationOperator op;
  op.kind = OperatorKind::kCombineTable;
  op.id = 9;
  op.combine_left_rep = c_desc;
  op.combine_right_rep = c_rank;
  PhysicalSchema after = source;
  ASSERT_TRUE(ApplyOperator(op, &after).ok());

  // LogicalDatabase keys rows by BIGINT, so the fragments are filled
  // directly on the Database.
  LogicalDatabase empty(&L);
  std::vector<std::vector<Row>> built[2];
  for (bool routed : {false, true}) {
    Database db(64);
    for (size_t i = 0; i < source.tables().size(); ++i) {
      ASSERT_TRUE(db.CreateTable(source.ToTableSchema(i)).ok());
    }
    for (int64_t i = 0; i < 200; ++i) {
      const Value name = Value::Varchar("cat-" + std::to_string(i));
      ASSERT_TRUE(db.Insert("cat_desc", {name, Value::Varchar("desc")}).ok());
      if (i % 3 != 0) {
        ASSERT_TRUE(db.Insert("cat_rank", {name, Value::Int(i)}).ok());
      }
    }
    DmlRouter router(&db);
    MigrationOptions options;
    options.batch_rows = 16;
    if (routed) options.dml_router = &router;
    MigrationExecutor exec(&db, &empty);
    exec.set_options(options);
    PhysicalSchema schema = source;
    auto io = exec.Apply(op, &schema);
    ASSERT_TRUE(io.ok()) << (routed ? "routed: " : "router-less: ") << io.status().ToString();
    built[routed] = BuiltRows(&db, source, after);
  }
  ASSERT_EQ(built[0].size(), 1u);
  size_t ranked = 0;
  for (const Row& row : built[0][0]) {
    for (const Value& v : row) ranked += v.type() == TypeId::kInt64 && !v.is_null();
  }
  EXPECT_GT(ranked, 0u) << "no row found its parent";
  EXPECT_LT(ranked, built[0][0].size()) << "every row found a parent";
  ExpectSameTables(built[1], built[0], "VARCHAR-keyed combine");
}

TEST(LiveCopy, RoutedCopyOfAnEmptySourceBuildsTheRouterlessRows) {
  // A tenant with an empty table (no orders yet, say) rolls out with the
  // router attached like every fleet tenant. Every non-create operator of
  // the trajectory, with its source emptied — for a combine, either side —
  // must apply and build exactly the rows of the router-less copy.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = GenerateTpcwData(*tpcw, TpcwScale{"300 items / 500 customers", 300, 500}, 7);
  size_t checked = 0;
  for (size_t s = 0; s < schedule->steps(); ++s) {
    const MigrationOperator& op = schedule->ops[s];
    if (op.kind == OperatorKind::kCreateTable) continue;
    const PhysicalSchema& before = schedule->at(s);
    for (const std::string& emptied : TablesOnlyIn(before, schedule->at(s + 1))) {
      const std::string what = op.ToString(tpcw->logical) + " with " + emptied + " emptied";
      std::vector<std::vector<Row>> built[2];
      for (bool routed : {false, true}) {
        Database db(64);
        ASSERT_TRUE(data->Materialize(&db, before).ok());
        ASSERT_NO_FATAL_FAILURE(EmptyTable(&db, emptied));
        DmlRouter router(&db);
        MigrationOptions options;
        if (routed) options.dml_router = &router;
        MigrationExecutor exec(&db, data.get());
        exec.set_options(options);
        PhysicalSchema schema = before;
        auto io = exec.Apply(op, &schema);
        ASSERT_TRUE(io.ok()) << what << (routed ? ", routed: " : ", router-less: ")
                             << io.status().ToString();
        built[routed] = BuiltRows(&db, before, schedule->at(s + 1));
      }
      ExpectSameTables(built[1], built[0], what);
      ++checked;
    }
  }
  EXPECT_GE(checked, 3u) << "the trajectory must split and combine";
}

/// Fails the next read of one page, once: that read exhausts
/// FaultInjectionDiskManager's read budget, which is lifted right after.
class PageReadFault : public FaultInjectionDiskManager {
 public:
  PageReadFault() : FaultInjectionDiskManager(std::make_unique<InMemoryDiskManager>()) {}

  void FailNextReadOf(PageId page) {
    target_ = page;
    fired_ = false;
  }
  bool fired() const { return fired_; }

  Status ReadPage(PageId page_id, char* out) override {
    if (page_id != target_) return FaultInjectionDiskManager::ReadPage(page_id, out);
    target_ = kInvalidPageId;
    fired_ = true;
    set_read_budget(reads_done());
    Status s = FaultInjectionDiskManager::ReadPage(page_id, out);
    set_read_budget(kNoLimit);
    return s;
  }

 private:
  PageId target_ = kInvalidPageId;
  bool fired_ = false;
};

TEST(LiveCopy, UnreadableSourcePageFailsTheCopyAndKeepsTheSource) {
  // Every non-create operator of the trajectory, in a 16-page pool, with
  // the first page of one of its sources — a combine's parent included —
  // failing its next read once. The copy must fail with the read's error
  // instead of copying an empty or parentless source, and leave every
  // source row in place. Once the page reads again, a fresh Apply (after
  // the rollback) or a Resume (without it) must build the unfaulted rows.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = GenerateTpcwData(*tpcw, TpcwScale{"300 items / 500 customers", 300, 500}, 5);
  constexpr size_t kPool = 16;
  for (size_t s = 0; s < schedule->steps(); ++s) {
    const MigrationOperator& op = schedule->ops[s];
    if (op.kind == OperatorKind::kCreateTable) continue;
    const PhysicalSchema& before = schedule->at(s);
    const PhysicalSchema& after = schedule->at(s + 1);
    const std::vector<std::string> sources = TablesOnlyIn(before, after);

    std::vector<std::vector<Row>> control;
    {
      Database db(kPool);
      ASSERT_TRUE(data->Materialize(&db, before).ok());
      MigrationExecutor exec(&db, data.get());
      PhysicalSchema schema = before;
      ASSERT_TRUE(exec.Apply(op, &schema).ok());
      control = BuiltRows(&db, before, after);
    }

    for (const std::string& faulted : sources) {
      for (bool routed : {false, true}) {
        for (bool rollback : {true, false}) {
          const std::string what = op.ToString(tpcw->logical) + ", " + faulted +
                                   "'s first page unreadable, " +
                                   (routed ? "routed" : "router-less") +
                                   (rollback ? ", rolled back" : ", resumed");
          auto disk = std::make_unique<PageReadFault>();
          PageReadFault* fault = disk.get();
          Database db(kPool, std::move(disk));
          ASSERT_TRUE(data->Materialize(&db, before).ok());
          std::vector<std::vector<Row>> source_rows;
          for (const std::string& t : sources) source_rows.push_back(HeapRows(&db, t));
          auto info = db.GetTable(faulted);
          ASSERT_TRUE(info.ok());
          ASSERT_TRUE(db.pool()->EvictAll().ok());
          fault->FailNextReadOf((*info)->heap->first_page());

          DmlRouter router(&db);
          MigrationOptions options;
          options.batch_rows = 64;
          options.rollback_on_error = rollback;
          if (routed) options.dml_router = &router;
          MigrationExecutor exec(&db, data.get());
          exec.set_options(options);
          PhysicalSchema schema = before;
          auto failed = exec.Apply(op, &schema);
          ASSERT_TRUE(fault->fired()) << what;
          ASSERT_EQ(failed.status().code(), StatusCode::kIOError)
              << what << ": " << (failed.ok() ? "OK" : failed.status().ToString());
          std::vector<std::vector<Row>> kept;
          for (const std::string& t : sources) kept.push_back(HeapRows(&db, t));
          ExpectSameTables(kept, source_rows, what + ", sources after the failure");

          ASSERT_EQ(db.HasPendingMigration(), !rollback) << what;
          auto redone = rollback ? exec.Apply(op, &schema) : exec.Resume(op, &schema);
          ASSERT_TRUE(redone.ok()) << what << ": " << redone.status().ToString();
          ExpectSameTables(BuiltRows(&db, before, after), control, what);
        }
      }
    }
  }
}

/// Buffer-pool page fetches (hits + misses) so far.
uint64_t PageFetches(const Database& db) {
  const BufferPoolStats& s = db.pool()->stats();
  return s.hits.load() + s.misses.load();
}

/// Raises `heights[t]` to the height of table t's tallest B+ tree, for every
/// table of `schema`.
void NoteIndexHeights(Database* db, const PhysicalSchema& schema,
                      std::map<std::string, uint32_t>* heights) {
  for (const PhysicalTable& t : schema.tables()) {
    auto info = db->GetTable(t.name);
    ASSERT_TRUE(info.ok()) << t.name;
    uint32_t& h = (*heights)[t.name];
    for (const auto& idx : (*info)->indexes) h = std::max(h, idx->tree->height());
  }
}

TEST(LiveCopy, PageFetchesPerCopiedRowDoNotGrowWithTheTable) {
  // The whole trajectory through AdvanceOneOp (router attached), at the
  // benchmark's tenant scale and at 4x. Per copied row, a batch fetches its
  // share of the source pages, descends every destination index to insert,
  // and descends a combine's parent key tree at most once. At 4x the data
  // that must cost no more fetches per row than at 1x, except that every
  // descent may cross one more level where a tree grew one. A descent
  // fetches at least one page at 1x, so that allowance is at most the 1x
  // count. Walking the source from its first page to the frontier, or
  // re-hashing the whole parent table, every batch costs ~3x more per row
  // at 4x.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const TpcwScale scales[2] = {{"300 items / 500 customers", 300, 500},
                               {"1200 items / 2000 customers", 1200, 2000}};
  double per_row[2] = {};
  std::map<std::string, uint32_t> heights[2];
  for (size_t s = 0; s < 2; ++s) {
    auto data = GenerateTpcwData(*tpcw, scales[s], 7);
    ShardOptions shard_options;
    shard_options.pool_pages = 1024;
    auto shard = TenantShard::Create(0, tpcw->source, data.get(), std::move(shard_options));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    Database* db = (*shard)->db();
    uint64_t op_rows = 0;
    MigrationOptions options;
    options.batch_rows = 64;
    options.on_batch = [&op_rows](const MigrationBatchEvent& event) {
      op_rows = event.rows_copied;
      return Status::OK();
    };
    uint64_t rows = 0;
    uint64_t fetches = 0;
    for (size_t step = 0; step < schedule->steps(); ++step) {
      ASSERT_NO_FATAL_FAILURE(NoteIndexHeights(db, schedule->at(step), &heights[s]));
      op_rows = 0;
      const uint64_t before = PageFetches(*db);
      Status st = (*shard)->AdvanceOneOp(*schedule, options);
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
      fetches += PageFetches(*db) - before;
      rows += op_rows;
    }
    ASSERT_NO_FATAL_FAILURE(NoteIndexHeights(db, schedule->at(schedule->steps()), &heights[s]));
    ASSERT_GT(rows, 0u);
    per_row[s] = static_cast<double>(fetches) / static_cast<double>(rows);
  }
  // The allowance's premise: no tree grew by more than one level.
  bool grew = false;
  for (const auto& [table, h] : heights[1]) {
    EXPECT_LE(h, heights[0][table] + 1) << table;
    grew = grew || h > heights[0][table];
  }
  EXPECT_LE(per_row[1], per_row[0] * (grew ? 2 : 1))
      << per_row[0] << " page fetches per copied row at 1x, " << per_row[1] << " at 4x";
}

}  // namespace
}  // namespace pse

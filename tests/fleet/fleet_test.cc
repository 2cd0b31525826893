// Fleet property tests: a fleet of randomized tenant shards, each crashed
// and resumed at a random batch mid-schedule, must converge row-for-row to
// uninterrupted single-tenant reference runs; per-shard ProvenanceStores
// must never cross-contaminate; TenantShard::Open must re-position a
// durable shard anywhere on the shared trajectory; and the statistics
// TenantShard::Create leaves are those a further full ANALYZE computes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/writability.h"
#include "common/rng.h"
#include "fleet/schedule.h"
#include "fleet/tenant_shard.h"
#include "storage/disk_manager.h"
#include "tests/common/test_db_builder.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::SameRows;
using testutil::TableRows;

/// Per-tenant data sizes differ so convergence is checked on genuinely
/// distinct instances, not one instance copied N times.
std::unique_ptr<LogicalDatabase> TenantData(const Bookstore& bs, size_t tenant) {
  return bs.MakeData(3 + static_cast<int>(tenant % 3), 2 + static_cast<int>(tenant % 4),
                     18 + 5 * static_cast<int>(tenant));
}

/// Drains `shard` to the end of `schedule` with small batches.
void DrainShard(TenantShard* shard, const FleetSchedule& schedule) {
  MigrationOptions options;
  options.batch_rows = 16;
  while (!shard->done(schedule)) {
    Status s = shard->AdvanceOneOp(schedule, options);
    ASSERT_TRUE(s.ok()) << shard->name() << " step " << shard->step() << ": " << s.ToString();
  }
}

/// Sorted dump of every table of `schema` in `db`.
std::vector<std::vector<Row>> DumpTables(Database* db, const PhysicalSchema& schema) {
  std::vector<std::vector<Row>> out;
  for (const PhysicalTable& t : schema.tables()) out.push_back(TableRows(db, t.name));
  return out;
}

class FleetPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    auto schedule = PlanFleetSchedule(bs_->source, bs_->object);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    schedule_ = std::make_unique<FleetSchedule>(std::move(*schedule));
    ASSERT_GT(schedule_->steps(), 2u) << "the bookstore trajectory must have several steps";
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<FleetSchedule> schedule_;
};

// The tentpole property: every tenant of a fleet is killed at a random
// (step, batch) of the shared schedule — mid-copy, torn state on disk —
// reopened from its file, resumed, and drained. The final contents must be
// row-for-row identical to the same tenant's uninterrupted in-memory run.
TEST_F(FleetPropertyTest, CrashedAndResumedFleetConvergesToUninterruptedRuns) {
  constexpr size_t kTenants = 6;
  Rng rng(20260808);
  const PhysicalSchema& final_schema = schedule_->at(schedule_->steps());

  for (size_t t = 0; t < kTenants; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    std::unique_ptr<LogicalDatabase> data = TenantData(*bs_, t);

    // Reference: the same tenant migrated in one uninterrupted run.
    std::vector<std::vector<Row>> want;
    {
      ShardOptions options;
      options.pool_pages = 256;
      auto ref = TenantShard::Create(1000 + t, bs_->source, data.get(), std::move(options));
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      DrainShard(ref->get(), *schedule_);
      want = DumpTables((*ref)->db(), final_schema);
    }

    // Crash run: file-backed, killed after a random batch of a random step.
    const std::string path =
        testing::TempDir() + "/pse_fleet_shard_" + std::to_string(t) + ".db";
    std::remove(path.c_str());
    const size_t kill_step = rng.Index(schedule_->steps());
    const uint64_t kill_batch = static_cast<uint64_t>(rng.UniformInt(0, 4));
    SCOPED_TRACE("kill at step " + std::to_string(kill_step) + " batch " +
                 std::to_string(kill_batch));
    {
      auto file = FileDiskManager::Open(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      ShardOptions options;
      options.pool_pages = 256;
      options.disk = std::move(*file);
      auto created = TenantShard::Create(t, bs_->source, data.get(), std::move(options));
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      std::unique_ptr<TenantShard> shard = std::move(*created);

      MigrationOptions clean;
      clean.batch_rows = 16;
      for (size_t s = 0; s < kill_step; ++s) {
        ASSERT_TRUE(shard->AdvanceOneOp(*schedule_, clean).ok());
      }
      MigrationOptions crash;
      crash.batch_rows = 16;
      crash.rollback_on_error = false;  // leave the torn state on disk
      crash.on_batch = [kill_batch](const MigrationBatchEvent& event) -> Status {
        if (event.batch_index >= kill_batch) return Status::Internal("simulated crash");
        return Status::OK();
      };
      Status s = shard->AdvanceOneOp(*schedule_, crash);
      // kill_batch past the operator's batch count: the op completed; the
      // shard still "crashes" (is dropped) between operators.
      if (s.ok()) {
        EXPECT_EQ(shard->step(), kill_step + 1);
      } else {
        EXPECT_EQ(shard->step(), kill_step);
      }
    }  // the crash: the Database (and every unflushed page) dies here

    auto file = FileDiskManager::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto reopened = TenantShard::Open(t, *schedule_, data.get(), std::move(*file), 256);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<TenantShard> shard = std::move(*reopened);
    // Open either rolled the journaled operator forward (step == kill_step+1)
    // or re-positioned between operators; never behind the last clean op.
    EXPECT_GE(shard->step(), kill_step);
    EXPECT_LE(shard->step(), kill_step + 1);

    DrainShard(shard.get(), *schedule_);
    EXPECT_TRUE(shard->done(*schedule_));
    EXPECT_FALSE(shard->db()->HasPendingMigration());

    std::vector<std::vector<Row>> got = DumpTables(shard->db(), final_schema);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(SameRows(got[i], want[i]))
          << final_schema.tables()[i].name << " diverges after crash/resume (" << got[i].size()
          << " vs " << want[i].size() << " rows)";
    }
    std::remove(path.c_str());
  }
}

// A crashed-and-resumed shard reopened a second time with no operator in
// flight must land on the exact schedule step it had reached (the table-set
// match path of TenantShard::Open), for every step of the trajectory.
TEST_F(FleetPropertyTest, OpenRepositionsShardAtEveryTrajectoryStep) {
  std::unique_ptr<LogicalDatabase> data = TenantData(*bs_, 0);
  const std::string path = testing::TempDir() + "/pse_fleet_reposition.db";

  for (size_t stop_at = 0; stop_at <= schedule_->steps(); ++stop_at) {
    SCOPED_TRACE("stop at step " + std::to_string(stop_at));
    std::remove(path.c_str());
    {
      auto file = FileDiskManager::Open(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      ShardOptions options;
      options.disk = std::move(*file);
      auto created = TenantShard::Create(7, bs_->source, data.get(), std::move(options));
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      MigrationOptions clean;
      clean.batch_rows = 16;
      for (size_t s = 0; s < stop_at; ++s) {
        ASSERT_TRUE((*created)->AdvanceOneOp(*schedule_, clean).ok());
      }
    }
    auto file = FileDiskManager::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto reopened = TenantShard::Open(7, *schedule_, data.get(), std::move(*file));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->step(), stop_at);
    EXPECT_EQ((*reopened)->published_step(), stop_at);
    EXPECT_TRUE((*reopened)->CurrentSchema().EquivalentTo(schedule_->at(stop_at)));
  }
  std::remove(path.c_str());
}

// Regression for the per-shard ProvenanceStore contract: DELETE snapshots
// taken on one shard must never surface on a neighbor shard. Both shards
// rename author 0 to a shard-distinct value, migrate to the object layout
// (author values now live only denormalized in glossary rows), delete every
// book — pushing the author values into provenance — then INSERT a fresh
// book without providing them. The resolution ladder must recover each
// shard's OWN value from its OWN store.
TEST_F(FleetPropertyTest, DeleteProvenanceNeverCrossesShards) {
  auto data_a = bs_->MakeData(2, 2, 6);
  auto data_b = bs_->MakeData(2, 2, 6);
  auto shard_a = TenantShard::Create(0, bs_->source, data_a.get());
  auto shard_b = TenantShard::Create(1, bs_->source, data_b.get());
  ASSERT_TRUE(shard_a.ok() && shard_b.ok());
  TenantShard* a = shard_a->get();
  TenantShard* b = shard_b->get();

  // The store the router writes is the shard's own, not a router-private one.
  ASSERT_EQ(a->router()->provenance(), a->provenance());
  ASSERT_EQ(b->router()->provenance(), b->provenance());
  ASSERT_NE(a->provenance(), b->provenance());

  std::vector<VersionTable> source_tables = VersionTablesOf(bs_->source);
  std::vector<VersionTable> object_tables = VersionTablesOf(bs_->object);
  const VersionTable* author_vt = nullptr;
  const VersionTable* book_vt = nullptr;
  for (const VersionTable& vt : source_tables) {
    if (vt.anchor == bs_->author) author_vt = &vt;
  }
  for (const VersionTable& vt : object_tables) {
    if (vt.anchor == bs_->book) book_vt = &vt;
  }
  ASSERT_NE(author_vt, nullptr);
  ASSERT_NE(book_vt, nullptr);

  auto rename_author = [&](TenantShard* shard, const std::string& name) {
    LogicalDml dml;
    dml.kind = DmlKind::kUpdate;
    dml.table = *author_vt;
    dml.key = 0;
    dml.set_attrs = {bs_->a_name};
    dml.set_values = {Value::Varchar(name)};
    ASSERT_TRUE(shard->router()->Execute(dml, shard->CurrentSchema()).ok());
  };
  rename_author(a, "alice-shard-a");
  rename_author(b, "alice-shard-b");

  DrainShard(a, *schedule_);
  DrainShard(b, *schedule_);

  // Delete every book on both shards: each author's values survive only in
  // that shard's provenance store.
  auto delete_books = [&](TenantShard* shard) {
    for (int64_t key = 0; key < 4; ++key) {
      LogicalDml dml;
      dml.kind = DmlKind::kDelete;
      dml.table = *book_vt;
      dml.key = key;
      ASSERT_TRUE(shard->router()->Execute(dml, shard->CurrentSchema()).ok());
    }
  };
  delete_books(a);
  delete_books(b);
  EXPECT_GT(a->router()->stats().provenance_rows, 0u);

  std::optional<Value> got_a = a->provenance()->Get(bs_->author, 0, bs_->a_name);
  std::optional<Value> got_b = b->provenance()->Get(bs_->author, 0, bs_->a_name);
  ASSERT_TRUE(got_a.has_value() && got_b.has_value());
  EXPECT_EQ(got_a->AsString(), "alice-shard-a");
  EXPECT_EQ(got_b->AsString(), "alice-shard-b");

  // End to end: a fresh book for author 0 (a_name not provided) must be
  // denormalized from the shard's own snapshot.
  auto insert_book = [&](TenantShard* shard) {
    LogicalDml dml;
    dml.kind = DmlKind::kInsert;
    dml.table = *book_vt;
    dml.key = 100;
    dml.set_attrs = {bs_->b_title, bs_->b_a_id};
    dml.set_values = {Value::Varchar("postmortem"), Value::Int(0)};
    ASSERT_TRUE(shard->router()->Execute(dml, shard->CurrentSchema()).ok());
  };
  insert_book(a);
  insert_book(b);

  auto table_mentions = [&](TenantShard* shard, const std::string& needle) {
    const PhysicalSchema schema = shard->CurrentSchema();
    for (const PhysicalTable& t : schema.tables()) {
      for (const Row& row : TableRows(shard->db(), t.name)) {
        for (const Value& v : row) {
          if (!v.is_null() && v.type() == TypeId::kVarchar && v.AsString() == needle) {
            return true;
          }
        }
      }
    }
    return false;
  };
  EXPECT_TRUE(table_mentions(a, "alice-shard-a"));
  EXPECT_TRUE(table_mentions(b, "alice-shard-b"));
  // The regression bite: neither shard ever sees the other's snapshot.
  EXPECT_FALSE(table_mentions(a, "alice-shard-b"));
  EXPECT_FALSE(table_mentions(b, "alice-shard-a"));
}

bool SameOptionalValue(const std::optional<Value>& a, const std::optional<Value>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->type() == b->type() && a->is_null() == b->is_null() && a->Compare(*b) == 0;
}

// Create ANALYZEs each table once, right after loading it. Every table's
// row count and statistics must already be, field for field, what one more
// AnalyzeAll computes: on TPC-W's source and object layouts, in a pool far
// smaller than the data.
TEST(TenantShardCreateTest, OneAnalyzePerTableIsExact) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto data = GenerateTpcwData(*tpcw, ScaleTiny(), 5);
  for (const PhysicalSchema* layout : {&tpcw->source, &tpcw->object}) {
    ShardOptions options;
    options.pool_pages = 16;
    auto shard = TenantShard::Create(0, *layout, data.get(), std::move(options));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    Database* db = (*shard)->db();
    std::vector<uint64_t> row_counts;
    std::vector<TableStatistics> stats;
    for (const PhysicalTable& t : layout->tables()) {
      auto info = db->GetTable(t.name);
      ASSERT_TRUE(info.ok()) << t.name;
      EXPECT_TRUE((*info)->stats_valid) << t.name;
      row_counts.push_back((*info)->row_count);
      stats.push_back((*info)->stats);
    }
    ASSERT_TRUE(db->AnalyzeAll().ok());
    for (size_t i = 0; i < layout->tables().size(); ++i) {
      const std::string& name = layout->tables()[i].name;
      SCOPED_TRACE(name);
      const TableInfo* info = *db->GetTable(name);
      const TableStatistics& want = info->stats;
      const TableStatistics& got = stats[i];
      EXPECT_EQ(row_counts[i], info->row_count);
      EXPECT_GT(want.row_count, 0u);
      EXPECT_EQ(got.row_count, want.row_count);
      EXPECT_EQ(got.page_count, want.page_count);
      EXPECT_EQ(got.avg_tuple_width, want.avg_tuple_width);
      ASSERT_EQ(got.columns.size(), want.columns.size());
      for (const auto& [column, w] : want.columns) {
        SCOPED_TRACE(column);
        const ColumnStatistics* g = got.Column(column);
        ASSERT_NE(g, nullptr);
        EXPECT_EQ(g->null_count, w.null_count);
        EXPECT_EQ(g->num_distinct, w.num_distinct);
        EXPECT_TRUE(SameOptionalValue(g->min, w.min));
        EXPECT_TRUE(SameOptionalValue(g->max, w.max));
      }
    }
  }
}

}  // namespace
}  // namespace pse

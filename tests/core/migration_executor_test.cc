// Online migration execution: batched copy, fault injection between batches,
// crash + reopen + resume/rollback round-trips, and the executor's
// partial-failure guarantees (atomicity, no-trace collisions, partial
// progress reporting).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/migration_executor.h"
#include "storage/disk_manager.h"
#include "tests/core/core_test_util.h"

namespace pse {
namespace {

using coretest::Bookstore;
using coretest::SameRows;
using coretest::TableRows;

MigrationOperator SplitUserOp(const Bookstore& bs) {
  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 7;
  op.split_moved = {bs.u_addr};
  op.split_moved_anchor = bs.user;
  return op;
}

class OnlineMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    data_ = bs_->MakeData(5, 8, 60);
    path_ = testing::TempDir() + "/pse_migration_executor_test.db";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Reference result: the split applied in one go on a fresh in-memory db.
  void ReferenceSplit(std::vector<Row>* rest, std::vector<Row>* moved,
                      PhysicalSchema* schema_out = nullptr) {
    Database db(512);
    ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
    PhysicalSchema schema = bs_->source;
    MigrationExecutor exec(&db, data_.get());
    auto io = exec.Apply(SplitUserOp(*bs_), &schema);
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    *rest = TableRows(&db, "m7a_user");
    *moved = TableRows(&db, "m7b_user");
    if (schema_out) *schema_out = schema;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<LogicalDatabase> data_;
  std::string path_;
};

// --- partial-failure guarantees (in-memory) ---

TEST_F(OnlineMigrationTest, MidCopyFailureRollsBackAtomically) {
  Database db(512);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(&db, data_.get());

  MigrationOptions opts;
  opts.batch_rows = 16;
  opts.on_batch = [](const MigrationBatchEvent& ev) -> Status {
    if (ev.batch_index >= 2) return Status::Internal("simulated fault");
    return Status::OK();
  };
  exec.set_options(std::move(opts));

  std::vector<Row> user_before = TableRows(&db, "user");
  auto io = exec.Apply(SplitUserOp(*bs_), &schema);
  ASSERT_FALSE(io.ok());
  // Error is annotated with the operator and the I/O spent before rollback.
  EXPECT_NE(io.status().message().find("op#7"), std::string::npos) << io.status().ToString();
  // Atomicity: no trace of the half-applied operator.
  EXPECT_FALSE(db.HasTable("m7a_user"));
  EXPECT_FALSE(db.HasTable("m7b_user"));
  EXPECT_FALSE(db.HasPendingMigration());
  EXPECT_TRUE(db.HasTable("user"));
  EXPECT_TRUE(SameRows(user_before, TableRows(&db, "user")));
  // The schema object was left untouched, so the op can simply be retried.
  exec.set_options(MigrationOptions{});
  auto retry = exec.Apply(SplitUserOp(*bs_), &schema);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// Regression: the seed executor created targets one at a time and returned
// on the first error, leaving earlier targets (with fully copied data)
// behind. A name collision on the *second* split target must not leave the
// first one in the catalog.
TEST_F(OnlineMigrationTest, TargetCollisionLeavesNoTrace) {
  Database db(512);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(&db, data_.get());

  // Occupy the second target's name ("m7b_user") before applying.
  TableSchema decoy("m7b_user", {Column("x", TypeId::kInt64, 0, false)}, {"x"});
  ASSERT_TRUE(db.CreateTable(decoy).ok());

  auto io = exec.Apply(SplitUserOp(*bs_), &schema);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), StatusCode::kAlreadyExists) << io.status().ToString();
  // Nothing was created or copied; the colliding table was NOT clobbered.
  EXPECT_FALSE(db.HasTable("m7a_user"));
  EXPECT_TRUE(db.HasTable("m7b_user"));
  EXPECT_TRUE(db.HasTable("user"));
  EXPECT_FALSE(db.HasPendingMigration());
  auto decoy_info = db.GetTable("m7b_user");
  ASSERT_TRUE(decoy_info.ok());
  EXPECT_EQ((*decoy_info)->schema->num_columns(), 1u);
}

TEST_F(OnlineMigrationTest, ZeroBatchRowsIsRejected) {
  Database db(512);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(&db, data_.get());
  MigrationOptions opts;
  opts.batch_rows = 0;
  exec.set_options(std::move(opts));
  auto io = exec.Apply(SplitUserOp(*bs_), &schema);
  ASSERT_FALSE(io.ok());
  EXPECT_EQ(io.status().code(), StatusCode::kInvalidArgument);
}

// I/O spent inside on_batch is the hook's, not the migration's: Apply's
// result plus what the hook measured around its own body is exactly the
// database's I/O across Apply, because nothing before the executor takes
// its I/O baseline reads a page. The hook scans the source, which is larger
// than the pool, so it reads pages the copy evicted.
TEST_F(OnlineMigrationTest, HookIoIsLeftOutOfTheReportedIo) {
  constexpr size_t kPoolPages = 8;
  std::unique_ptr<LogicalDatabase> data = bs_->MakeData(5, 8, 2000);
  Database db(kPoolPages);
  ASSERT_TRUE(data->Materialize(&db, bs_->source).ok());
  auto user = db.GetTable("user");
  ASSERT_TRUE(user.ok());
  ASSERT_GT((*user)->heap->NumPages(), kPoolPages);

  MigrationExecutor exec(&db, data.get());
  MigrationOptions opts;
  opts.batch_rows = 64;
  uint64_t hook_io = 0;
  opts.on_batch = [&](const MigrationBatchEvent&) -> Status {
    const uint64_t hook_start = db.TotalIo();
    EXPECT_EQ(TableRows(&db, "user").size(), 2000u);
    hook_io += db.TotalIo() - hook_start;
    return Status::OK();
  };
  exec.set_options(std::move(opts));

  PhysicalSchema schema = bs_->source;
  const uint64_t start = db.TotalIo();
  auto io = exec.Apply(SplitUserOp(*bs_), &schema);
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  EXPECT_GT(hook_io, 0u);
  EXPECT_EQ(*io + hook_io, db.TotalIo() - start);
}

TEST_F(OnlineMigrationTest, ApplyAllReportsPartialProgress) {
  Database db(512);
  ASSERT_TRUE(data_->Materialize(&db, bs_->source).ok());
  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(&db, data_.get());

  MigrationOperator create;
  create.kind = OperatorKind::kCreateTable;
  create.id = 1;
  create.create_entity = bs_->book;
  create.create_attrs = {bs_->b_abstract};

  // The second op collides with a pre-existing table and fails up front.
  TableSchema decoy("m7b_user", {Column("x", TypeId::kInt64, 0, false)}, {"x"});
  ASSERT_TRUE(db.CreateTable(decoy).ok());

  auto io = exec.ApplyAll({create, SplitUserOp(*bs_)}, &schema);
  ASSERT_FALSE(io.ok());
  // The error names the position and the first operator's I/O.
  const std::string& message = io.status().message();
  EXPECT_NE(message.find("after 1 of 2 ops"), std::string::npos) << io.status().ToString();
  const size_t io_at = message.find("io=");
  ASSERT_NE(io_at, std::string::npos) << io.status().ToString();
  EXPECT_GT(std::stoull(message.substr(io_at + 3)), 0u) << io.status().ToString();
  // The create really is applied (it precedes the failure).
  EXPECT_TRUE(db.HasTable("m1_book_new"));
}

// Regression: the seed executor deduplicated split keys via AsInt(), which
// only worked for BIGINT keys. Dedup must follow Value equality so splits
// anchored at natural-key (VARCHAR) entities survive.
TEST_F(OnlineMigrationTest, SplitDedupHandlesStringKeys) {
  LogicalSchema L;
  EntityId item = L.AddEntity("item", "i_id");
  EntityId cat = L.AddEntity("cat", "c_name", TypeId::kVarchar, 12);
  AttrId i_title = *L.AddAttribute(item, "i_title", TypeId::kVarchar, 16);
  AttrId c_name = L.entity(cat).key;
  AttrId c_desc = *L.AddAttribute(cat, "c_desc", TypeId::kVarchar, 24);

  PhysicalSchema source(&L);
  // AddTable takes non-key attrs only; c_desc pulls in cat's key (c_name)
  // via CompleteAttrSet. Physical column order is [i_id, c_name, i_title,
  // c_desc]: anchor key first, then AttrId order.
  ASSERT_TRUE(source.AddTable("item_all", item, {i_title, c_desc}).ok());
  (void)c_name;

  // Materialize by hand: LogicalDatabase rows are keyed by BIGINT, so the
  // denormalized table (with its repeated string category keys) is built
  // directly on the Database.
  Database db(256);
  ASSERT_TRUE(db.CreateTable(source.ToTableSchema(0)).ok());
  const char* cats[] = {"ops", "dev", "ops", "qa", "dev", "ops"};
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert("item_all",
                          {Value::Int(i), Value::Varchar(cats[i]),
                           Value::Varchar("item-" + std::to_string(i)),
                           Value::Varchar(std::string("desc-") + cats[i])})
                    .ok());
  }

  MigrationOperator op;
  op.kind = OperatorKind::kSplitTable;
  op.id = 3;
  op.split_moved = {c_desc};
  op.split_moved_anchor = cat;

  LogicalDatabase empty(&L);
  MigrationExecutor exec(&db, &empty);
  PhysicalSchema schema = source;
  auto io = exec.Apply(op, &schema);
  ASSERT_TRUE(io.ok()) << io.status().ToString();

  // The category side deduplicates to the 3 distinct string keys.
  std::vector<Row> cats_rows = TableRows(&db, "m3b_cat");
  ASSERT_EQ(cats_rows.size(), 3u);
  EXPECT_EQ(cats_rows[0][0].AsString(), "dev");
  EXPECT_EQ(cats_rows[1][0].AsString(), "ops");
  EXPECT_EQ(cats_rows[2][0].AsString(), "qa");
  EXPECT_EQ(cats_rows[1][1].AsString(), "desc-ops");
  // The rest side (named after the moved anchor too) keeps all 6 rows.
  EXPECT_EQ(TableRows(&db, "m3a_cat").size(), 6u);
}

// --- crash / reopen / resume round-trips (file-backed) ---

class CrashRecoveryTest : public OnlineMigrationTest {
 protected:
  /// Opens the on-disk database wrapped in a fault injector and loads the
  /// bookstore source into it (checkpointed, fault limits off).
  void MaterializePersistent() {
    auto file = FileDiskManager::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto fault = std::make_unique<FaultInjectionDiskManager>(std::move(*file));
    fault_ = fault.get();
    auto db = Database::Open(std::move(fault), 256);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(data_->Materialize(db_.get(), bs_->source).ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
  }

  /// Simulates the crash (drops the Database and with it every unflushed
  /// page) and reopens from the file.
  void Reopen() {
    fault_ = nullptr;
    db_.reset();
    auto db = Database::Open(path_, 256);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  std::unique_ptr<Database> db_;
  FaultInjectionDiskManager* fault_ = nullptr;  // owned by db_
};

// The property test of the PR: kill the migration after the K-th batch, for
// a sweep of K, reopen, Resume, and require contents identical to a
// straight-through run.
TEST_F(CrashRecoveryTest, CrashAfterAnyBatchResumesToIdenticalContents) {
  std::vector<Row> ref_rest, ref_moved;
  ReferenceSplit(&ref_rest, &ref_moved);

  for (uint64_t kill_at : {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{6}, uint64_t{99}}) {
    SCOPED_TRACE("kill after batch " + std::to_string(kill_at));
    std::remove(path_.c_str());
    MaterializePersistent();

    PhysicalSchema schema = bs_->source;
    MigrationExecutor exec(db_.get(), data_.get());
    MigrationOptions opts;
    opts.batch_rows = 16;  // 60 user rows -> 4 batches per split target
    opts.rollback_on_error = false;
    opts.on_batch = [kill_at](const MigrationBatchEvent& ev) -> Status {
      if (ev.batch_index >= kill_at) return Status::Internal("simulated crash");
      return Status::OK();
    };
    exec.set_options(std::move(opts));

    auto io = exec.Apply(SplitUserOp(*bs_), &schema);
    if (io.ok()) {
      // kill_at beyond the batch count: the operator completed normally.
      EXPECT_TRUE(SameRows(ref_rest, TableRows(db_.get(), "m7a_user")));
      EXPECT_TRUE(SameRows(ref_moved, TableRows(db_.get(), "m7b_user")));
      continue;
    }

    Reopen();
    ASSERT_TRUE(db_->HasPendingMigration());
    EXPECT_EQ(db_->migration_journal().op_id, 7);

    PhysicalSchema resumed = bs_->source;
    MigrationExecutor exec2(db_.get(), data_.get());
    MigrationOptions resume_opts;
    resume_opts.batch_rows = 16;
    exec2.set_options(std::move(resume_opts));
    auto rio = exec2.Resume(SplitUserOp(*bs_), &resumed);
    ASSERT_TRUE(rio.ok()) << rio.status().ToString();

    EXPECT_FALSE(db_->HasPendingMigration());
    EXPECT_FALSE(db_->HasTable("user"));
    EXPECT_TRUE(SameRows(ref_rest, TableRows(db_.get(), "m7a_user")));
    EXPECT_TRUE(SameRows(ref_moved, TableRows(db_.get(), "m7b_user")));

    // The finished state is durable: a further clean reopen agrees.
    Reopen();
    EXPECT_FALSE(db_->HasPendingMigration());
    EXPECT_TRUE(SameRows(ref_rest, TableRows(db_.get(), "m7a_user")));
    EXPECT_TRUE(SameRows(ref_moved, TableRows(db_.get(), "m7b_user")));
  }
}

// Torn writes: the device dies after the W-th page write, so a batch's
// checkpoint is half on disk. Resume must detect the disagreement between
// the journaled cursor and the surviving heap, rebuild the torn target, and
// still converge to the reference contents.
TEST_F(CrashRecoveryTest, TornCheckpointWriteResumesToIdenticalContents) {
  std::vector<Row> ref_rest, ref_moved;
  ReferenceSplit(&ref_rest, &ref_moved);

  for (uint64_t write_budget : {uint64_t{2}, uint64_t{7}, uint64_t{15}, uint64_t{40}}) {
    SCOPED_TRACE("write budget " + std::to_string(write_budget));
    std::remove(path_.c_str());
    MaterializePersistent();

    PhysicalSchema schema = bs_->source;
    MigrationExecutor exec(db_.get(), data_.get());
    MigrationOptions opts;
    opts.batch_rows = 16;
    opts.rollback_on_error = false;
    exec.set_options(std::move(opts));

    fault_->set_write_budget(write_budget);
    auto io = exec.Apply(SplitUserOp(*bs_), &schema);
    ASSERT_FALSE(io.ok());
    EXPECT_EQ(io.status().code(), StatusCode::kIOError) << io.status().ToString();

    Reopen();
    if (db_->HasPendingMigration()) {
      PhysicalSchema resumed = bs_->source;
      MigrationExecutor exec2(db_.get(), data_.get());
      auto rio = exec2.Resume(SplitUserOp(*bs_), &resumed);
      ASSERT_TRUE(rio.ok()) << rio.status().ToString();
      EXPECT_FALSE(db_->HasTable("user"));
    } else {
      // The journal write itself never reached disk: the operator left no
      // durable trace and the source is untouched.
      ASSERT_TRUE(db_->HasTable("user"));
      PhysicalSchema resumed = bs_->source;
      MigrationExecutor exec2(db_.get(), data_.get());
      auto rio = exec2.Apply(SplitUserOp(*bs_), &resumed);
      ASSERT_TRUE(rio.ok()) << rio.status().ToString();
    }
    EXPECT_TRUE(SameRows(ref_rest, TableRows(db_.get(), "m7a_user")));
    EXPECT_TRUE(SameRows(ref_moved, TableRows(db_.get(), "m7b_user")));
  }
}

TEST_F(CrashRecoveryTest, RollbackAfterCrashRestoresSource) {
  MaterializePersistent();
  std::vector<Row> user_before = TableRows(db_.get(), "user");

  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(db_.get(), data_.get());
  MigrationOptions opts;
  opts.batch_rows = 16;
  opts.rollback_on_error = false;
  opts.on_batch = [](const MigrationBatchEvent& ev) -> Status {
    if (ev.batch_index >= 2) return Status::Internal("simulated crash");
    return Status::OK();
  };
  exec.set_options(std::move(opts));
  ASSERT_FALSE(exec.Apply(SplitUserOp(*bs_), &schema).ok());

  Reopen();
  ASSERT_TRUE(db_->HasPendingMigration());
  MigrationExecutor exec2(db_.get(), data_.get());
  ASSERT_TRUE(exec2.Rollback().ok());
  EXPECT_FALSE(db_->HasPendingMigration());
  EXPECT_FALSE(db_->HasTable("m7a_user"));
  EXPECT_FALSE(db_->HasTable("m7b_user"));
  EXPECT_TRUE(SameRows(user_before, TableRows(db_.get(), "user")));

  // ... and the rollback is durable.
  Reopen();
  EXPECT_FALSE(db_->HasPendingMigration());
  EXPECT_TRUE(SameRows(user_before, TableRows(db_.get(), "user")));
}

TEST_F(CrashRecoveryTest, ResumeValidatesTheJournaledOperator) {
  MaterializePersistent();
  PhysicalSchema schema = bs_->source;
  MigrationExecutor exec(db_.get(), data_.get());
  MigrationOptions opts;
  opts.batch_rows = 16;
  opts.rollback_on_error = false;
  opts.on_batch = [](const MigrationBatchEvent& ev) -> Status {
    if (ev.batch_index >= 1) return Status::Internal("simulated crash");
    return Status::OK();
  };
  exec.set_options(std::move(opts));
  ASSERT_FALSE(exec.Apply(SplitUserOp(*bs_), &schema).ok());

  Reopen();
  ASSERT_TRUE(db_->HasPendingMigration());
  MigrationExecutor exec2(db_.get(), data_.get());

  // A different operator must be rejected (id mismatch).
  MigrationOperator other = SplitUserOp(*bs_);
  other.id = 42;
  PhysicalSchema s2 = bs_->source;
  auto bad = exec2.Resume(other, &s2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Apply refuses to start anything new while the journal is pending.
  auto blocked = exec2.Apply(other, &s2);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kInvalidArgument);

  // The journaled operator resumes fine.
  auto rio = exec2.Resume(SplitUserOp(*bs_), &s2);
  EXPECT_TRUE(rio.ok()) << rio.status().ToString();
}

}  // namespace
}  // namespace pse

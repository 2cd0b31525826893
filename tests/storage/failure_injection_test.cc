// Failure injection: a DiskManager that starts failing after N operations.
// Verifies that I/O errors propagate as Status through every layer (buffer
// pool, heap, B+ tree, Database) instead of crashing or corrupting state.
// Uses the shared FaultInjectionDiskManager decorator (disk_manager.h), the
// same one the crash-recovery suite drives.
#include <gtest/gtest.h>

#include "storage/database.h"

namespace pse {
namespace {

std::unique_ptr<FaultInjectionDiskManager> FlakyDisk(uint64_t io_budget) {
  auto disk = std::make_unique<FaultInjectionDiskManager>(std::make_unique<InMemoryDiskManager>());
  disk->set_io_budget(io_budget);
  return disk;
}

TableSchema WideSchema() {
  return TableSchema("t",
                     {Column("id", TypeId::kInt64, 0, false),
                      Column("payload", TypeId::kVarchar, 64)},
                     {"id"});
}

TEST(FailureInjectionTest, InsertsEventuallyFailCleanly) {
  // A tiny pool forces evictions (disk writes); a small I/O budget makes
  // them fail at some point. The API must return a non-OK status, never
  // crash.
  Database db(4, FlakyDisk(25));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  bool failed = false;
  for (int64_t i = 0; i < 5000 && !failed; ++i) {
    auto rid = db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'x'))});
    if (!rid.ok()) {
      EXPECT_EQ(rid.status().code(), StatusCode::kIOError);
      failed = true;
    }
  }
  EXPECT_TRUE(failed) << "injected failure never surfaced";
}

TEST(FailureInjectionTest, ScanSurfacesReadFailure) {
  Database db(4, FlakyDisk(1000000));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'y'))}).ok());
  }
  // With zero I/O budget even table creation cannot flush; depending on
  // timing it may succeed (page still cached). Either way nothing crashes
  // and any failure is kIOError.
  Database db2(4, FlakyDisk(0));
  Status s = db2.CreateTable(WideSchema());
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
}

// A heap whose first page cannot be read fails Begin() and Seek() with the
// read's error rather than yielding an empty scan, and scans in full once
// the page reads again.
TEST(FailureInjectionTest, BeginAndSeekReportAnUnreadablePage) {
  auto disk = FlakyDisk(FaultInjectionDiskManager::kNoLimit);
  FaultInjectionDiskManager* handle = disk.get();
  Database db(8, std::move(disk));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'r'))}).ok());
  }
  auto t = db.GetTable("t");
  ASSERT_TRUE(t.ok());
  const TableHeap& heap = *(*t)->heap;
  ASSERT_GT(heap.NumPages(), 1u);
  ASSERT_TRUE(db.pool()->EvictAll().ok());

  handle->set_read_budget(handle->reads_done());
  auto begin = heap.Begin();
  EXPECT_EQ(begin.status().code(), StatusCode::kIOError);
  auto seek = heap.Seek(Rid{heap.first_page(), 1});
  EXPECT_EQ(seek.status().code(), StatusCode::kIOError);
  EXPECT_NE(seek.status().message().find("page " + std::to_string(heap.first_page())),
            std::string::npos)
      << seek.status().ToString();

  handle->set_read_budget(FaultInjectionDiskManager::kNoLimit);
  begin = heap.Begin();
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  uint64_t rows = 0;
  while (!begin->AtEnd()) {
    ++rows;
    ASSERT_TRUE(begin->Next().ok());
  }
  EXPECT_EQ(rows, 400u);
}

TEST(FailureInjectionTest, FailedOperationsLeaveDatabaseUsable) {
  Database db(4, FlakyDisk(40));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  int64_t inserted = 0;
  for (int64_t i = 0; i < 5000; ++i) {
    auto rid = db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'z'))});
    if (!rid.ok()) break;
    ++inserted;
  }
  ASSERT_GT(inserted, 0);
  // Catalog-level operations that need no disk I/O still work.
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(FailureInjectionTest, WriteBudgetFailsExactlyAfterLimit) {
  auto disk = FlakyDisk(FaultInjectionDiskManager::kNoLimit);
  FaultInjectionDiskManager* handle = disk.get();
  handle->set_write_budget(3);
  Database db(4, std::move(disk));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  // Writes fail once exactly 3 have succeeded; the error names the page.
  for (int64_t i = 0; i < 5000; ++i) {
    auto rid = db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'w'))});
    if (!rid.ok()) {
      EXPECT_EQ(rid.status().code(), StatusCode::kIOError);
      EXPECT_NE(rid.status().message().find("injected write failure"), std::string::npos);
      EXPECT_EQ(handle->writes_done(), 3u);
      return;
    }
  }
  FAIL() << "write budget never triggered";
}

// An UPDATE that must move its row to a fresh page, whose allocation fails
// (the eviction it needs cannot write), returns the error and leaves the
// row where it was: readable, in its index, and counted once.
TEST(FailureInjectionTest, FailedRelocatingUpdateKeepsTheRow) {
  auto disk = FlakyDisk(FaultInjectionDiskManager::kNoLimit);
  FaultInjectionDiskManager* handle = disk.get();
  Database db(4, std::move(disk));
  ASSERT_TRUE(db.CreateTable(WideSchema()).ok());
  Rid last;
  for (int64_t i = 0; i < 400; ++i) {
    auto rid = db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'u'))});
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    last = *rid;
  }
  TableInfo* t = *db.GetTable("t");
  ASSERT_EQ(last.page_id, t->heap->last_page());
  const uint64_t pages = t->heap->NumPages();

  // 8,113 bytes fit only an empty page: the row must move to a new one.
  handle->set_write_budget(handle->writes_done());
  auto moved = db.Update("t", last, {Value::Int(399), Value::Varchar(std::string(8100, 'w'))});
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kIOError) << moved.status().ToString();
  handle->set_write_budget(FaultInjectionDiskManager::kNoLimit);

  Row row;
  ASSERT_TRUE(t->heap->Get(last, &row).ok());
  EXPECT_EQ(row[1].AsString(), std::string(60, 'u'));
  std::vector<Rid> rids;
  ASSERT_TRUE(t->FindIndex("id")->tree->ScanEqual(399, &rids).ok());
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], last);
  EXPECT_EQ(t->row_count, 400u);
  EXPECT_EQ(t->heap->NumPages(), pages);
  auto counted = t->heap->CountRowsBounded(pages);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(*counted, 400u);

  // With the disk back, the same update moves the row.
  moved = db.Update("t", last, {Value::Int(399), Value::Varchar(std::string(8100, 'w'))});
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(t->heap->NumPages(), pages + 1);
  ASSERT_TRUE(t->heap->Get(*moved, &row).ok());
  EXPECT_EQ(row[1].AsString().size(), 8100u);
  EXPECT_EQ(t->heap->Get(last, &row).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pse

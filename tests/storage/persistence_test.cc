// Database::Open / Checkpoint: the catalog and data survive process
// restarts (simulated by destroying and reopening the Database).
#include <gtest/gtest.h>

#include <cstdio>

#include "storage/database.h"

namespace pse {
namespace {

TableSchema BookSchema() {
  return TableSchema("book",
                     {Column("book_id", TypeId::kInt64, 0, false),
                      Column("title", TypeId::kVarchar, 30),
                      Column("author_id", TypeId::kInt64)},
                     {"book_id"});
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/pse_persist_test.db";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PersistenceTest, FreshOpenCreatesEmptyDatabase) {
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->TableNames().empty());
}

TEST_F(PersistenceTest, CatalogSurvivesReopen) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(BookSchema()).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->HasTable("book"));
  auto t = (*db)->GetTable("book");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema->num_columns(), 3u);
  EXPECT_EQ((*t)->schema->column(1).name, "title");
  EXPECT_EQ((*t)->schema->column(1).avg_width, 30u);
  EXPECT_FALSE((*t)->schema->column(0).nullable);
  ASSERT_EQ((*t)->schema->key_columns().size(), 1u);
  EXPECT_EQ((*t)->schema->key_columns()[0], "book_id");
}

TEST_F(PersistenceTest, DataAndIndexesSurviveReopen) {
  const int kRows = 3000;  // several heap pages + a multi-level-ish index
  {
    auto db = Database::Open(path_, 64);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(BookSchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex("book", "author_id").ok());
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*db)->Insert("book", {Value::Int(i),
                                         Value::Varchar("title-" + std::to_string(i)),
                                         Value::Int(i % 50)})
                      .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(path_, 64);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = (*db)->GetTable("book");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->row_count, static_cast<uint64_t>(kRows));
  // Scan sees every row.
  uint64_t scanned = 0;
  auto it = (*t)->heap->Begin();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  while (!it->AtEnd()) {
    ++scanned;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(scanned, static_cast<uint64_t>(kRows));
  // Both indexes answer point queries.
  const IndexInfo* pk = (*t)->FindIndex("book_id");
  ASSERT_NE(pk, nullptr);
  std::vector<Rid> rids;
  ASSERT_TRUE(pk->tree->ScanEqual(1234, &rids).ok());
  ASSERT_EQ(rids.size(), 1u);
  Row row;
  ASSERT_TRUE((*t)->heap->Get(rids[0], &row).ok());
  EXPECT_EQ(row[1].AsString(), "title-1234");
  const IndexInfo* fk = (*t)->FindIndex("author_id");
  ASSERT_NE(fk, nullptr);
  rids.clear();
  ASSERT_TRUE(fk->tree->ScanEqual(7, &rids).ok());
  EXPECT_EQ(rids.size(), static_cast<size_t>(kRows / 50));
}

TEST_F(PersistenceTest, WritesAfterReopenWork) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(BookSchema()).ok());
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("book", {Value::Int(i), Value::Varchar("x"), Value::Int(0)}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    for (int64_t i = 100; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("book", {Value::Int(i), Value::Varchar("y"), Value::Int(1)}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto t = (*db)->GetTable("book");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->row_count, 200u);
  std::vector<Rid> rids;
  ASSERT_TRUE((*t)->FindIndex("book_id")->tree->ScanEqual(150, &rids).ok());
  EXPECT_EQ(rids.size(), 1u);
}

TEST_F(PersistenceTest, UncheckpointedChangesAreNotPromised) {
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(BookSchema()).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Insert WITHOUT checkpoint: the catalog row count is stale on reopen.
    ASSERT_TRUE(
        (*db)->Insert("book", {Value::Int(1), Value::Varchar("x"), Value::Int(0)}).ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  auto t = (*db)->GetTable("book");
  ASSERT_TRUE(t.ok());
  // The table exists (checkpointed); the un-checkpointed insert may or may
  // not be visible — the contract only promises checkpointed state.
  EXPECT_TRUE((*db)->HasTable("book"));
}

TEST_F(PersistenceTest, LargeCatalogSpansChainPages) {
  // ~200 tables x ~8 wide columns comfortably exceeds one 8 KiB page of
  // serialized catalog.
  {
    auto db = Database::Open(path_);
    ASSERT_TRUE(db.ok());
    for (int t = 0; t < 200; ++t) {
      std::vector<Column> cols{Column("id", TypeId::kInt64, 0, false)};
      for (int c = 0; c < 8; ++c) {
        cols.emplace_back("column_with_a_rather_long_name_" + std::to_string(c),
                          TypeId::kVarchar, 32);
      }
      TableSchema schema("table_number_" + std::to_string(t), std::move(cols), {"id"});
      ASSERT_TRUE((*db)->CreateTable(schema).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->TableNames().size(), 200u);
  EXPECT_TRUE((*db)->HasTable("table_number_199"));
}

TEST_F(PersistenceTest, RepeatedCheckpointsReuseChain) {
  auto db = Database::Open(path_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(BookSchema()).ok());
  uint64_t pages_after_first = 0;
  ASSERT_TRUE((*db)->Checkpoint().ok());
  pages_after_first = (*db)->disk()->NumAllocatedPages();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  EXPECT_EQ((*db)->disk()->NumAllocatedPages(), pages_after_first);
}

}  // namespace
}  // namespace pse

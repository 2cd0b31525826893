#include "storage/database.h"

#include <gtest/gtest.h>

namespace pse {
namespace {

TableSchema BookSchema() {
  return TableSchema("book",
                     {Column("book_id", TypeId::kInt64, 0, false),
                      Column("title", TypeId::kVarchar, 30),
                      Column("author_id", TypeId::kInt64)},
                     {"book_id"});
}

TEST(DatabaseTest, CreateAndLookupTable) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  EXPECT_TRUE(db.HasTable("book"));
  EXPECT_TRUE(db.HasTable("BOOK"));  // case-insensitive
  EXPECT_FALSE(db.HasTable("missing"));
  auto t = db.GetTable("book");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema->num_columns(), 3u);
}

TEST(DatabaseTest, DuplicateCreateRejected) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  EXPECT_TRUE(db.CreateTable(BookSchema()).IsAlreadyExists());
}

TEST(DatabaseTest, AutoKeyIndexCreated) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  auto t = db.GetTable("book");
  ASSERT_TRUE(t.ok());
  EXPECT_NE((*t)->FindIndex("book_id"), nullptr);
  EXPECT_EQ((*t)->FindIndex("author_id"), nullptr);
}

TEST(DatabaseTest, InsertMaintainsIndex) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  for (int64_t i = 0; i < 100; ++i) {
    auto rid = db.Insert("book", {Value::Int(i), Value::Varchar("t" + std::to_string(i)),
                                  Value::Int(i % 10)});
    ASSERT_TRUE(rid.ok());
  }
  auto t = db.GetTable("book");
  const IndexInfo* idx = (*t)->FindIndex("book_id");
  ASSERT_NE(idx, nullptr);
  std::vector<Rid> rids;
  ASSERT_TRUE(idx->tree->ScanEqual(42, &rids).ok());
  ASSERT_EQ(rids.size(), 1u);
  Row row;
  ASSERT_TRUE((*t)->heap->Get(rids[0], &row).ok());
  EXPECT_EQ(row[1].AsString(), "t42");
}

TEST(DatabaseTest, SecondaryIndexBackfills) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("book", {Value::Int(i), Value::Varchar("t"), Value::Int(i % 5)}).ok());
  }
  ASSERT_TRUE(db.CreateIndex("book", "author_id").ok());
  auto t = db.GetTable("book");
  const IndexInfo* idx = (*t)->FindIndex("author_id");
  ASSERT_NE(idx, nullptr);
  std::vector<Rid> rids;
  ASSERT_TRUE(idx->tree->ScanEqual(3, &rids).ok());
  EXPECT_EQ(rids.size(), 10u);
}

TEST(DatabaseTest, IndexOnNonIntColumnRejected) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  EXPECT_FALSE(db.CreateIndex("book", "title").ok());
}

TEST(DatabaseTest, DeleteMaintainsIndex) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  auto rid = db.Insert("book", {Value::Int(7), Value::Varchar("x"), Value::Int(1)});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(db.Delete("book", *rid).ok());
  auto t = db.GetTable("book");
  std::vector<Rid> rids;
  ASSERT_TRUE((*t)->FindIndex("book_id")->tree->ScanEqual(7, &rids).ok());
  EXPECT_TRUE(rids.empty());
  EXPECT_EQ((*t)->row_count, 0u);
}

TEST(DatabaseTest, UpdateMaintainsIndex) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  auto rid = db.Insert("book", {Value::Int(7), Value::Varchar("x"), Value::Int(1)});
  ASSERT_TRUE(rid.ok());
  auto nrid = db.Update("book", *rid, {Value::Int(8), Value::Varchar("y"), Value::Int(1)});
  ASSERT_TRUE(nrid.ok());
  auto t = db.GetTable("book");
  std::vector<Rid> rids;
  ASSERT_TRUE((*t)->FindIndex("book_id")->tree->ScanEqual(7, &rids).ok());
  EXPECT_TRUE(rids.empty());
  ASSERT_TRUE((*t)->FindIndex("book_id")->tree->ScanEqual(8, &rids).ok());
  EXPECT_EQ(rids.size(), 1u);
}

TEST(DatabaseTest, DropTableFreesAndForgets) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        db.Insert("book", {Value::Int(i), Value::Varchar(std::string(40, 'a')), Value::Int(0)})
            .ok());
  }
  ASSERT_TRUE(db.DropTable("book").ok());
  EXPECT_FALSE(db.HasTable("book"));
  EXPECT_FALSE(db.DropTable("book").ok());
  // Can recreate under the same name.
  EXPECT_TRUE(db.CreateTable(BookSchema()).ok());
}

TEST(DatabaseTest, AnalyzeComputesStatistics) {
  Database db(64);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("book", {Value::Int(i), Value::Varchar("title-" + std::to_string(i)),
                                   i % 7 == 0 ? Value::Null(TypeId::kInt64) : Value::Int(i % 10)})
                    .ok());
  }
  ASSERT_TRUE(db.Analyze("book").ok());
  auto t = db.GetTable("book");
  const TableStatistics& st = (*t)->stats;
  EXPECT_EQ(st.row_count, 200u);
  EXPECT_GT(st.page_count, 0u);
  EXPECT_GT(st.avg_tuple_width, 10.0);
  const ColumnStatistics* id_stats = st.Column("book_id");
  ASSERT_NE(id_stats, nullptr);
  EXPECT_EQ(id_stats->num_distinct, 200u);
  EXPECT_EQ(id_stats->min->AsInt(), 0);
  EXPECT_EQ(id_stats->max->AsInt(), 199);
  const ColumnStatistics* author_stats = st.Column("author_id");
  ASSERT_NE(author_stats, nullptr);
  EXPECT_EQ(author_stats->num_distinct, 10u);
  EXPECT_GT(author_stats->null_count, 0u);
}

TEST(DatabaseTest, TableNamesSorted) {
  Database db(64);
  TableSchema a("zeta", {Column("x", TypeId::kInt64)});
  TableSchema b("alpha", {Column("x", TypeId::kInt64)});
  ASSERT_TRUE(db.CreateTable(a).ok());
  ASSERT_TRUE(db.CreateTable(b).ok());
  auto names = db.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(DatabaseTest, IoCountersAdvanceOnColdScan) {
  Database db(8);  // tiny pool to force physical I/O
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db.Insert("book", {Value::Int(i), Value::Varchar(std::string(30, 'b')), Value::Int(0)})
            .ok());
  }
  db.ResetIoStats();
  auto t = db.GetTable("book");
  uint64_t rows = 0;
  auto it = (*t)->heap->Begin();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  while (!it->AtEnd()) {
    ++rows;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(rows, 2000u);
  EXPECT_GT(db.TotalIo(), 0u);
}

}  // namespace
}  // namespace pse

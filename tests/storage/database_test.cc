#include "storage/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

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

// Crash recovery's rebuild and CreateIndex backfill through the same
// cursor the load appends through: after a load with NULL and duplicate
// keys, a rebuilt index holds the loaded (key, rid) sequence in a tree of
// the same height and entry count.
TEST(DatabaseTest, RebuiltIndexMatchesTheLoadedOne) {
  Database db(16);
  ASSERT_TRUE(db.CreateTable(BookSchema()).ok());
  ASSERT_TRUE(db.CreateIndex("book", "author_id").ok());
  Rng rng(99);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    rows.push_back({Value::Int(i), Value::Varchar(std::string(rng.Index(40), 'b')),
                    rng.Bernoulli(0.3) ? Value::Null(TypeId::kInt64)
                                       : Value::Int(rng.UniformInt(0, 400))});
  }
  size_t appended = 0;
  ASSERT_TRUE(db.InsertBatch("book", rows, &appended).ok());
  ASSERT_EQ(appended, rows.size());
  TableInfo* t = *db.GetTable("book");

  struct Shape {
    std::vector<std::pair<int64_t, Rid>> entries;
    uint32_t height;
    uint64_t checked;
  };
  auto shape_of = [&](const IndexInfo& idx) {
    Shape out;
    std::vector<Rid> rids;
    EXPECT_TRUE(idx.tree->ScanRange(INT64_MIN, INT64_MAX, &rids).ok());
    for (const Rid& rid : rids) {
      Row row;
      EXPECT_TRUE(t->heap->Get(rid, &row).ok());
      out.entries.emplace_back(row[idx.column_idx].AsInt(), rid);
    }
    out.height = idx.tree->height();
    auto checked = idx.tree->CheckInvariants();
    EXPECT_TRUE(checked.ok()) << checked.status().ToString();
    out.checked = checked.ok() ? *checked : 0;
    return out;
  };
  std::vector<Shape> loaded;
  for (const auto& idx : t->indexes) loaded.push_back(shape_of(*idx));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].entries.size(), rows.size());
  EXPECT_LT(loaded[1].entries.size(), rows.size());  // NULL keys are not indexed
  EXPECT_EQ(loaded[1].height, 2u);
  for (const Shape& s : loaded) {
    EXPECT_TRUE(std::is_sorted(s.entries.begin(), s.entries.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first != b.first ? a.first < b.first
                                                           : a.second.Pack() < b.second.Pack();
                               }));
    EXPECT_EQ(s.checked, s.entries.size());
  }

  ASSERT_TRUE(db.RebuildIndexes("book").ok());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const Shape rebuilt = shape_of(*t->indexes[i]);
    EXPECT_EQ(rebuilt.entries, loaded[i].entries) << "index " << i;
    EXPECT_EQ(rebuilt.height, loaded[i].height) << "index " << i;
    EXPECT_EQ(rebuilt.checked, loaded[i].checked) << "index " << i;
  }
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

// Lookups ignore case, long names included, and the catalog keeps its
// order: names sort as their lowercase forms do.
TEST(DatabaseTest, TableLookupsIgnoreCaseAndKeepTheirOrder) {
  Database db(64);
  const std::vector<std::string> names = {"Order_Line_Items_2026", "order_line", "ORDERS",
                                          "a", "Zeta", "order_line_items_2025"};
  for (const std::string& n : names) {
    ASSERT_TRUE(db.CreateTable(TableSchema(n, {Column("x", TypeId::kInt64)})).ok()) << n;
  }
  EXPECT_TRUE(db.CreateTable(TableSchema("ORDER_LINE", {Column("x", TypeId::kInt64)}))
                  .IsAlreadyExists());
  for (const std::string& n : names) {
    EXPECT_TRUE(db.HasTable(ToLower(n))) << n;
    EXPECT_TRUE(db.HasTable(ToUpper(n))) << n;
    auto t = db.GetTable(ToUpper(n));
    ASSERT_TRUE(t.ok()) << n;
    EXPECT_EQ((*t)->schema->name(), n);
  }
  EXPECT_FALSE(db.HasTable("order_lin"));
  EXPECT_FALSE(db.HasTable("order_line_"));
  EXPECT_EQ(db.GetTable("orders_").status().code(), StatusCode::kNotFound);

  std::vector<std::string> want = names;
  std::sort(want.begin(), want.end(),
            [](const std::string& x, const std::string& y) { return ToLower(x) < ToLower(y); });
  EXPECT_EQ(db.TableNames(), want);

  ASSERT_TRUE(db.DropTable("ORDER_LINE_ITEMS_2026").ok());
  EXPECT_FALSE(db.HasTable("Order_Line_Items_2026"));
  EXPECT_TRUE(db.HasTable("order_line_items_2025"));
  EXPECT_EQ(db.DropTable("order_line_items_2026").code(), StatusCode::kNotFound);
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

// A corrupt slot or slot count on a heap page fails every reader of the
// heap with Internal — ANALYZE, a scan through the engine, a point Get and
// CountRowsBounded — instead of sending it past the page.
class CorruptHeapPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(BookSchema()).ok());
    for (int64_t i = 0; i < 50; ++i) {
      auto rid = db_.Insert("book", {Value::Int(i), Value::Varchar("title-" + std::to_string(i)),
                                     Value::Int(i % 7)});
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      rids_.push_back(*rid);
    }
    ASSERT_TRUE(db_.Analyze("book").ok());
  }

  /// Each reader of the heap fails on the corrupt page with `message`; `rid`
  /// is a slot on it.
  void ExpectEveryReaderFails(const Rid& rid, const std::string& message) {
    auto expect_internal = [&](const Status& st, const char* reader) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << reader << ": " << st.ToString();
      EXPECT_EQ(st.message(), message) << reader;
    };
    expect_internal(db_.Analyze("book"), "Analyze");

    BoundQuery q;
    q.tables.push_back(TableAccess("book", {"book_id", "title"}));
    q.select_items.emplace_back(Col("book.book_id"), AggFunc::kNone, "id");
    q.select_items.emplace_back(Col("book.title"), AggFunc::kNone, "title");
    DatabaseCatalogView view(&db_);
    auto plan = PlanQuery(q, view);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    expect_internal(ExecutePlan(**plan, &db_).status(), "ExecutePlan");

    const TableInfo* info = *db_.GetTable("book");
    Row row;
    expect_internal(info->heap->Get(rid, &row), "Get");
    expect_internal(info->heap->CountRowsBounded(info->heap->NumPages()).status(),
                    "CountRowsBounded");
  }

  Database db_{64};
  std::vector<Rid> rids_;
};

// Page layout (table_heap.h): an 8-byte header whose bytes 4..6 hold the
// slot count, then 4-byte slots of {u16 offset, u16 size}.
TEST_F(CorruptHeapPageTest, SlotSizePastThePageFailsEveryReader) {
  const Rid bad = rids_[10];
  {
    auto guard = db_.pool()->FetchPage(bad.page_id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    char* page = guard->mutable_data();
    uint16_t offset = 0;
    std::memcpy(&offset, page + 8 + bad.slot * 4, 2);
    const uint16_t size = 0xFFFF;
    std::memcpy(page + 8 + bad.slot * 4 + 2, &size, 2);
    // The tuple is a 1-byte null bitmap, the 8-byte BIGINT, then the
    // VARCHAR's u32 length: a length that fills the new size sends a
    // reader that trusts the slot far past the page.
    const uint32_t len = size - (1 + 8 + 4);
    std::memcpy(page + offset + 1 + 8, &len, 4);
  }
  ExpectEveryReaderFails(bad, "heap page " + std::to_string(bad.page_id) + " slot " +
                                  std::to_string(bad.slot) + " is out of bounds");
}

TEST_F(CorruptHeapPageTest, SlotCountPastThePageFailsEveryReader) {
  const Rid rid = rids_[10];
  {
    auto guard = db_.pool()->FetchPage(rid.page_id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    const uint16_t slot_count = 0xFFFF;
    std::memcpy(guard->mutable_data() + 4, &slot_count, 2);
  }
  ExpectEveryReaderFails(
      rid, "heap page " + std::to_string(rid.page_id) + " has a malformed slot count");
}

}  // namespace
}  // namespace pse

// ANALYZE reads every statistic from the encoded tuples. A tuple whose
// bytes run past its slot must fail ANALYZE with Deserialize's status and
// leave the previous statistics in place. The property test against the
// decoding oracle (analyze_oracle.h) is tests/core/analyze_property_test.cc.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "storage/database.h"
#include "tests/storage/analyze_oracle.h"

namespace pse {
namespace {

using testutil::ExpectSameStatistics;
using testutil::OracleAnalyze;

/// Points the VARCHAR length of the tuple at `rid` (schema: a BIGINT, then
/// the VARCHAR) past the end of its slot, through a page guard.
void CorruptVarcharLength(Database* db, const Rid& rid) {
  auto guard = db->pool()->FetchPage(rid.page_id);
  ASSERT_TRUE(guard.ok()) << guard.status().ToString();
  char* page = guard->mutable_data();
  // Page layout (table_heap.h): an 8-byte header, then 4-byte slots of
  // {u16 offset, u16 size}; the tuple is a 1-byte null bitmap, the 8-byte
  // BIGINT, then the VARCHAR's u32 length.
  uint16_t offset = 0;
  uint16_t size = 0;
  std::memcpy(&offset, page + 8 + rid.slot * 4, 2);
  std::memcpy(&size, page + 8 + rid.slot * 4 + 2, 2);
  const uint32_t len = size;
  std::memcpy(page + offset + 1 + 8, &len, 4);
}

TEST(AnalyzeTest, TupleRunningPastItsSlotFailsAndKeepsThePreviousStatistics) {
  Database db(8);
  TableSchema schema("t", {Column("id", TypeId::kInt64, 0, false),
                           Column("name", TypeId::kVarchar, 16), Column("score", TypeId::kDouble)},
                     {"id"});
  ASSERT_TRUE(db.CreateTable(schema).ok());
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 1500; ++i) {
    auto rid = db.Insert("t", {Value::Int(i), Value::Varchar("name-" + std::to_string(i)),
                               Value::Double(static_cast<double>(i) / 4)});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(db.Analyze("t").ok());
  const TableInfo* info = *db.GetTable("t");
  const TableStatistics before = info->stats;
  ASSERT_EQ(before.row_count, 1500u);

  // A tuple on a later page, so the scan has counted rows when it fails.
  const Rid bad = rids[1200];
  ASSERT_NE(bad.page_id, info->heap->first_page());
  ASSERT_NO_FATAL_FAILURE(CorruptVarcharLength(&db, bad));
  Status want;
  {
    auto guard = db.pool()->FetchPage(bad.page_id);
    ASSERT_TRUE(guard.ok());
    uint16_t offset = 0;
    uint16_t size = 0;
    std::memcpy(&offset, guard->data() + 8 + bad.slot * 4, 2);
    std::memcpy(&size, guard->data() + 8 + bad.slot * 4 + 2, 2);
    Row row;
    want = TupleCodec::Deserialize(schema, guard->data() + offset, size, &row);
  }
  ASSERT_EQ(want.code(), StatusCode::kInternal);
  EXPECT_EQ(want.message(), "tuple truncated (varchar data)");

  Status st = db.Analyze("t");
  EXPECT_EQ(st.code(), want.code());
  EXPECT_EQ(st.message(), want.message());
  auto oracle = OracleAnalyze(*info);
  EXPECT_EQ(oracle.status().code(), want.code());
  EXPECT_EQ(oracle.status().message(), want.message());
  // No partial statistics: the last good ones stay.
  EXPECT_TRUE(info->stats_valid);
  EXPECT_EQ(info->row_count, 1500u);
  ExpectSameStatistics(info->stats, before);
}

}  // namespace
}  // namespace pse

// ANALYZE as it was computed before it read tuples as bytes, kept as the
// statistics tests' oracle: every tuple decoded into a Row through the heap
// iterator (which fetches the tuple's page once per tuple), its width taken
// as the size of its serialization, and each column's distinct Value::Hash
// values counted in a node-based set. Database::Analyze must compute the
// same statistics bit for bit and touch the disk and the pool's misses as
// this does, with one page fetch per heap page.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/database.h"

namespace pse {
namespace testutil {

/// The decoding scan's statistics of table `t`, which it leaves untouched.
inline Result<TableStatistics> OracleAnalyze(const TableInfo& t) {
  const TableSchema& schema = *t.schema;
  std::vector<std::unordered_set<size_t>> distinct(schema.num_columns());
  std::vector<ColumnStatistics> cols(schema.num_columns());
  uint64_t rows = 0;
  double width_sum = 0;
  PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, t.heap->Begin());
  while (!it.AtEnd()) {
    const Row& row = it.row();
    ++rows;
    std::string bytes;
    PSE_RETURN_NOT_OK(TupleCodec::Serialize(schema, row, &bytes));
    width_sum += static_cast<double>(bytes.size());
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const Value& v = row[i];
      if (v.is_null()) {
        ++cols[i].null_count;
        continue;
      }
      distinct[i].insert(v.Hash());
      if (!cols[i].min.has_value() || v.Compare(*cols[i].min) < 0) cols[i].min = v;
      if (!cols[i].max.has_value() || v.Compare(*cols[i].max) > 0) cols[i].max = v;
    }
    PSE_RETURN_NOT_OK(it.Next());
  }
  TableStatistics stats;
  stats.row_count = rows;
  stats.page_count = t.heap->NumPages();
  stats.avg_tuple_width = rows > 0 ? width_sum / static_cast<double>(rows) : 0.0;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    cols[i].num_distinct = distinct[i].size();
    stats.columns[schema.column(i).name] = cols[i];
  }
  return stats;
}

inline bool SameDoubleBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Same type, same NULL-ness, same content: a DOUBLE bit for bit (NaN and
/// -0.0 included), so values that merely Compare equal do not pass.
inline bool IdenticalValue(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kDouble:
      return SameDoubleBits(a.AsDouble(), b.AsDouble());
    case TypeId::kVarchar:
      return a.AsString() == b.AsString();
    case TypeId::kBoolean:
    case TypeId::kInt64:
      return a.AsInt() == b.AsInt();
  }
  return false;
}

inline bool IdenticalOptionalValue(const std::optional<Value>& a, const std::optional<Value>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || IdenticalValue(*a, *b);
}

/// Every field of `got` equals `want`'s: counts, the average width bit for
/// bit, and per column the NULLs, the distinct count and typed min and max.
inline void ExpectSameStatistics(const TableStatistics& got, const TableStatistics& want) {
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.page_count, want.page_count);
  EXPECT_TRUE(SameDoubleBits(got.avg_tuple_width, want.avg_tuple_width))
      << got.avg_tuple_width << " vs " << want.avg_tuple_width;
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (const auto& [column, w] : want.columns) {
    SCOPED_TRACE(column);
    const ColumnStatistics* g = got.Column(column);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->null_count, w.null_count);
    EXPECT_EQ(g->num_distinct, w.num_distinct);
    EXPECT_TRUE(IdenticalOptionalValue(g->min, w.min))
        << (g->min ? g->min->ToString() : "none") << " vs "
        << (w.min ? w.min->ToString() : "none");
    EXPECT_TRUE(IdenticalOptionalValue(g->max, w.max))
        << (g->max ? g->max->ToString() : "none") << " vs "
        << (w.max ? w.max->ToString() : "none");
  }
}

/// The disk's and the pool's counters.
struct IoCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t misses = 0;
  uint64_t fetches = 0;  ///< hits + misses

  static IoCounters Of(Database* db) {
    IoCounters c;
    c.reads = db->disk()->stats().page_reads.load();
    c.writes = db->disk()->stats().page_writes.load();
    c.misses = db->pool()->stats().misses.load();
    c.fetches = db->pool()->stats().hits.load() + c.misses;
    return c;
  }
  IoCounters operator-(const IoCounters& o) const {
    return IoCounters{reads - o.reads, writes - o.writes, misses - o.misses, fetches - o.fetches};
  }
};

/// Runs the oracle over `table` of `oracle_db` and Database::Analyze over
/// the same table of `db`, two databases in the same state. The statistics
/// Analyze stores must equal the oracle's, and so must the disk reads and
/// writes and the pool misses each made; Analyze fetches each heap page
/// once. Both databases are then again in one state.
inline void ExpectAnalyzeMatchesOracle(Database* oracle_db, Database* db,
                                       const std::string& table) {
  SCOPED_TRACE(table);
  auto oracle_info = oracle_db->GetTable(table);
  auto info = db->GetTable(table);
  ASSERT_TRUE(oracle_info.ok() && info.ok()) << table;
  const IoCounters oracle_before = IoCounters::Of(oracle_db);
  auto want = OracleAnalyze(**oracle_info);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const IoCounters oracle_io = IoCounters::Of(oracle_db) - oracle_before;

  const IoCounters before = IoCounters::Of(db);
  Status st = db->Analyze(table);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const IoCounters io = IoCounters::Of(db) - before;

  ExpectSameStatistics((*info)->stats, *want);
  EXPECT_TRUE((*info)->stats_valid);
  EXPECT_EQ((*info)->row_count, want->row_count);
  EXPECT_EQ(io.reads, oracle_io.reads);
  EXPECT_EQ(io.writes, oracle_io.writes);
  EXPECT_EQ(io.misses, oracle_io.misses);
  EXPECT_EQ(io.fetches, (*info)->heap->NumPages());
}

}  // namespace testutil
}  // namespace pse

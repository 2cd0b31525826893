// ANALYZE's property test. ANALYZE reads every statistic from the encoded
// tuples; the oracle (tests/storage/analyze_oracle.h) decodes every row, as
// ANALYZE did before. On random tables of all four types — NULLs, NaN,
// ±0.0, ±inf, integral and fractional DOUBLEs, empty, long and
// prefix-sharing strings, deleted slots, rows an UPDATE relocated, extremes
// that only the scan order decides, an empty heap — in a pool far smaller
// than the data, Analyze must store the oracle's statistics field for
// field, make its disk reads and writes and pool misses, leave the pool in
// the state it leaves, and fetch each heap page once. The test runs in one
// thread, so it lives in live_copy_test, which the TSan leg skips.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/database.h"
#include "tests/storage/analyze_oracle.h"

namespace pse {
namespace {

using testutil::ExpectAnalyzeMatchesOracle;
using testutil::IoCounters;
using testutil::OracleAnalyze;

TableSchema MixedSchema(const std::string& name) {
  return TableSchema(name,
                     {Column("k", TypeId::kInt64, 0, false), Column("flag", TypeId::kBoolean),
                      Column("x", TypeId::kDouble), Column("s", TypeId::kVarchar, 16),
                      Column("n", TypeId::kInt64), Column("t", TypeId::kVarchar, 40),
                      Column("y", TypeId::kDouble), Column("none", TypeId::kDouble)},
                     {"k"});
}

double RandomDouble(Rng* rng) {
  static const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(),
                                    -std::numeric_limits<double>::quiet_NaN(),
                                    0.0,
                                    -0.0,
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    2.0,
                                    -3.0,
                                    65536.0,
                                    1e18,
                                    9.3e18,
                                    -9.3e18,
                                    0.5,
                                    -1.25,
                                    std::numeric_limits<double>::max(),
                                    std::numeric_limits<double>::lowest(),
                                    std::numeric_limits<double>::denorm_min()};
  switch (rng->Index(3)) {
    case 0:
      return kSpecial[rng->Index(std::size(kSpecial))];
    case 1:
      return static_cast<double>(rng->UniformInt(-50, 50));  // integral
    default:
      return (rng->UniformDouble() - 0.5) * 1e3;  // fractional
  }
}

int64_t RandomInt(Rng* rng) {
  static const int64_t kSpecial[] = {std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(), 0, -1, 1};
  switch (rng->Index(3)) {
    case 0:
      return kSpecial[rng->Index(std::size(kSpecial))];
    case 1:
      return rng->UniformInt(-4, 4) * 65536;  // equal low bits
    default:
      return rng->UniformInt(-1000, 1000);
  }
}

std::string RandomString(Rng* rng) {
  static const char* const kSpecial[] = {"",
                                         "a",
                                         "ab",
                                         "abc",
                                         "abcd",
                                         "abc\x7f",
                                         "abc\x80",
                                         "\xff",
                                         "shared-prefix-longer-than-sso-1",
                                         "shared-prefix-longer-than-sso-12",
                                         "shared-prefix-longer-than-sso-2"};
  switch (rng->Index(3)) {
    case 0:
      return kSpecial[rng->Index(std::size(kSpecial))];
    case 1:
      return "shared-prefix-" + rng->AlphaString(rng->Index(30));
    default:
      return rng->AlphaString(rng->Index(24));
  }
}

Row RandomRow(Rng* rng, int64_t key) {
  auto maybe_null = [rng](TypeId t, Value v) {
    return rng->Bernoulli(0.15) ? Value::Null(t) : std::move(v);
  };
  return Row{Value::Int(key),
             maybe_null(TypeId::kBoolean, Value::Bool(rng->Bernoulli(0.5))),
             maybe_null(TypeId::kDouble, Value::Double(RandomDouble(rng))),
             maybe_null(TypeId::kVarchar, Value::Varchar(RandomString(rng))),
             maybe_null(TypeId::kInt64, Value::Int(RandomInt(rng))),
             maybe_null(TypeId::kVarchar, Value::Varchar(RandomString(rng))),
             maybe_null(TypeId::kDouble, Value::Double(RandomDouble(rng))),
             Value::Null(TypeId::kDouble)};
}

/// Fills table `name` with `rows` random rows, then deletes and updates
/// some: updates that grow a row relocate it, others rewrite it in place.
/// With `lead` set, the first row's DOUBLEs are that value. Deterministic
/// in `seed`, so two databases built alike are in one state.
void FillTable(Database* db, const std::string& name, uint64_t seed, size_t rows,
               std::optional<double> lead) {
  ASSERT_TRUE(db->CreateTable(MixedSchema(name)).ok());
  Rng rng(seed);
  std::vector<Rid> rids;
  for (size_t i = 0; i < rows; ++i) {
    Row row = RandomRow(&rng, static_cast<int64_t>(i));
    if (i == 0 && lead) row[2] = row[6] = Value::Double(*lead);
    auto rid = db->Insert(name, row);
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(*rid);
  }
  for (size_t i = 0; i < rids.size(); ++i) {
    if (rng.Bernoulli(0.15)) {
      ASSERT_TRUE(db->Delete(name, rids[i]).ok());
    } else if (rng.Bernoulli(0.2)) {
      Row row = RandomRow(&rng, static_cast<int64_t>(i));
      if (rng.Bernoulli(0.5)) row[5] = Value::Varchar(std::string(60 + rng.Index(40), 'u'));
      auto rid = db->Update(name, rids[i], row);
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    }
  }
}

/// A table whose extremes only the scan order decides: every DOUBLE is 0.0
/// or -0.0, which compare equal, so the first one seen is both minimum and
/// maximum; and the VARCHAR extremes are long strings in the first row, on
/// a page the rest of the scan evicts from the pool.
void FillTies(Database* db, uint64_t seed) {
  ASSERT_TRUE(db->CreateTable(MixedSchema("ties")).ok());
  Rng rng(seed);
  for (int64_t i = 0; i < 1500; ++i) {
    Row row = RandomRow(&rng, i);
    for (size_t c : {2, 6}) {
      if (!row[c].is_null()) row[c] = Value::Double(rng.Bernoulli(0.5) ? 0.0 : -0.0);
    }
    row[3] = Value::Varchar(i == 0 ? "m-the-first-row-holds-the-minimum"
                                   : "n" + rng.AlphaString(rng.Index(12)));
    row[5] = Value::Varchar(i == 0 ? "y-the-first-row-holds-the-maximum"
                                   : "x" + rng.AlphaString(rng.Index(12)));
    ASSERT_TRUE(db->Insert("ties", row).ok());
  }
}

/// Five tables — random, random led by a NaN or a -0.0, ties, empty, and
/// emptied by deletes — in a pool of 8 pages.
std::unique_ptr<Database> BuildDatabase(uint64_t seed) {
  auto db = std::make_unique<Database>(8);
  const double lead = seed % 2 == 0 ? std::numeric_limits<double>::quiet_NaN() : -0.0;
  FillTable(db.get(), "mixed", seed, 2000, std::nullopt);
  FillTable(db.get(), "led", seed + 1000, 600, lead);
  FillTies(db.get(), seed + 3000);
  FillTable(db.get(), "empty", seed + 2000, 0, std::nullopt);
  EXPECT_TRUE(db->CreateTable(MixedSchema("emptied")).ok());
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 40; ++i) {
    Row row(8, Value::Null(TypeId::kInt64));
    row[0] = Value::Int(i);
    row[3] = Value::Varchar("gone");
    auto rid = db->Insert("emptied", row);
    EXPECT_TRUE(rid.ok());
    if (rid.ok()) rids.push_back(*rid);
  }
  for (const Rid& rid : rids) EXPECT_TRUE(db->Delete("emptied", rid).ok());
  return db;
}

class AnalyzeProperty : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzeProperty, MatchesTheDecodingScanFieldForFieldAndPageForPage) {
  const auto seed = static_cast<uint64_t>(GetParam());
  std::unique_ptr<Database> oracle_db = BuildDatabase(seed);
  std::unique_ptr<Database> db = BuildDatabase(seed);
  ASSERT_FALSE(HasFailure());
  const std::vector<std::string> tables = {"mixed", "led", "ties", "empty", "emptied", "mixed"};
  for (const std::string& table : tables) {
    ASSERT_NO_FATAL_FAILURE(ExpectAnalyzeMatchesOracle(oracle_db.get(), db.get(), table));
  }
  // The data spans far more pages than the pool holds, and ANALYZE met
  // deleted and relocated rows.
  const TableInfo* mixed = *db->GetTable("mixed");
  EXPECT_GT(mixed->heap->NumPages(), 2 * 8u);
  EXPECT_LT(mixed->stats.row_count, 2000u);
  EXPECT_EQ((*db->GetTable("empty"))->stats.row_count, 0u);
  EXPECT_EQ((*db->GetTable("emptied"))->stats.row_count, 0u);
  // Every value kind reached the statistics.
  const ColumnStatistics* none = mixed->stats.Column("none");
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->null_count, mixed->stats.row_count);
  EXPECT_FALSE(none->min.has_value());
  EXPECT_GT(mixed->stats.Column("x")->num_distinct, 20u);
  EXPECT_EQ(mixed->stats.Column("flag")->num_distinct, 2u);
  const TableInfo* ties = *db->GetTable("ties");
  EXPECT_GT(ties->heap->NumPages(), 8u);
  EXPECT_EQ(ties->stats.Column("x")->num_distinct, 1u);  // 0.0 and -0.0 hash alike
  EXPECT_EQ(ties->stats.Column("s")->min->AsString(), "m-the-first-row-holds-the-minimum");
  EXPECT_EQ(ties->stats.Column("t")->max->AsString(), "y-the-first-row-holds-the-maximum");
  // Both scans left the pool in one state: a further pass over every table
  // misses, reads and writes alike on both databases.
  const IoCounters oracle_before = IoCounters::Of(oracle_db.get());
  const IoCounters before = IoCounters::Of(db.get());
  for (const std::string& table : tables) {
    ASSERT_TRUE(OracleAnalyze(**oracle_db->GetTable(table)).ok());
    ASSERT_TRUE(OracleAnalyze(**db->GetTable(table)).ok());
  }
  const IoCounters oracle_after = IoCounters::Of(oracle_db.get()) - oracle_before;
  const IoCounters after = IoCounters::Of(db.get()) - before;
  EXPECT_EQ(after.misses, oracle_after.misses);
  EXPECT_EQ(after.reads, oracle_after.reads);
  EXPECT_EQ(after.writes, oracle_after.writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace pse

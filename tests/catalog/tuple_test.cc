#include "catalog/tuple.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pse {
namespace {

TableSchema MakeSchema() {
  return TableSchema("t", {Column("a", TypeId::kInt64), Column("b", TypeId::kVarchar, 16),
                           Column("c", TypeId::kDouble), Column("d", TypeId::kBoolean)});
}

TEST(TupleCodecTest, RoundTrip) {
  TableSchema s = MakeSchema();
  Row row{Value::Int(-7), Value::Varchar("hello"), Value::Double(3.25), Value::Bool(true)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
  Row back;
  ASSERT_TRUE(TupleCodec::Deserialize(s, bytes.data(), bytes.size(), &back).ok());
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].AsInt(), -7);
  EXPECT_EQ(back[1].AsString(), "hello");
  EXPECT_EQ(back[2].AsDouble(), 3.25);
  EXPECT_TRUE(back[3].AsBool());
}

TEST(TupleCodecTest, RoundTripWithNulls) {
  TableSchema s = MakeSchema();
  Row row{Value::Null(TypeId::kInt64), Value::Varchar(""), Value::Null(TypeId::kDouble),
          Value::Bool(false)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
  Row back;
  ASSERT_TRUE(TupleCodec::Deserialize(s, bytes.data(), bytes.size(), &back).ok());
  EXPECT_TRUE(back[0].is_null());
  EXPECT_EQ(back[1].AsString(), "");
  EXPECT_TRUE(back[2].is_null());
  EXPECT_FALSE(back[3].AsBool());
}

TEST(TupleCodecTest, ArityMismatchRejected) {
  TableSchema s = MakeSchema();
  std::string bytes;
  Row short_row{Value::Int(1)};
  EXPECT_FALSE(TupleCodec::Serialize(s, short_row, &bytes).ok());
}

TEST(TupleCodecTest, TruncatedBytesRejected) {
  TableSchema s = MakeSchema();
  Row row{Value::Int(1), Value::Varchar("abcd"), Value::Double(1.0), Value::Bool(true)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
  Row back;
  EXPECT_FALSE(TupleCodec::Deserialize(s, bytes.data(), bytes.size() - 3, &back).ok());
  EXPECT_FALSE(TupleCodec::Deserialize(s, bytes.data(), 0, &back).ok());
}

// Property: random rows round-trip exactly.
class TupleRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(TupleRoundTripProperty, RandomRowsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  TableSchema s = MakeSchema();
  for (int iter = 0; iter < 200; ++iter) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kInt64)
                                     : Value::Int(rng.UniformInt(INT64_MIN / 2, INT64_MAX / 2)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kVarchar)
                                     : Value::Varchar(rng.AlphaString(rng.Index(64))));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kDouble)
                                     : Value::Double(rng.UniformDouble() * 1e6));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kBoolean)
                                     : Value::Bool(rng.Bernoulli(0.5)));
    std::string bytes;
    ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
    Row back;
    ASSERT_TRUE(TupleCodec::Deserialize(s, bytes.data(), bytes.size(), &back).ok());
    ASSERT_TRUE(RowEq()(row, back)) << RowToString(row) << " vs " << RowToString(back);
    ASSERT_EQ(RowHash()(row), RowHash()(back));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleRoundTripProperty, ::testing::Values(1, 2, 3, 4, 5));

// The cursor reads every column in place: typed scalars, a VARCHAR as a view
// into the bytes, NULLs from the bitmap alone, and every byte consumed.
TEST(TupleCursorTest, ReadsColumnsInPlace) {
  TableSchema s = MakeSchema();
  Row row{Value::Int(-7), Value::Varchar("hello"), Value::Null(TypeId::kDouble),
          Value::Bool(true)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
  TupleCursor cur(bytes.data(), bytes.size(), s.num_columns());
  ASSERT_TRUE(cur.Open().ok());
  ASSERT_FALSE(cur.IsNull(0));
  int64_t i = 0;
  ASSERT_TRUE(cur.ReadInt(&i));
  EXPECT_EQ(i, -7);
  ASSERT_FALSE(cur.IsNull(1));
  std::string_view v;
  ASSERT_TRUE(cur.ReadVarchar(&v));
  EXPECT_EQ(v, "hello");
  EXPECT_GE(v.data(), bytes.data());
  EXPECT_LE(v.data() + v.size(), bytes.data() + bytes.size());
  EXPECT_TRUE(cur.IsNull(2));
  ASSERT_FALSE(cur.IsNull(3));
  bool b = false;
  ASSERT_TRUE(cur.ReadBool(&b));
  EXPECT_TRUE(b);
  // Nothing is left: one more read of any width runs out of bytes.
  double d = 0;
  EXPECT_FALSE(cur.ReadDouble(&d));
  EXPECT_EQ(cur.Error().message(), "tuple truncated (double)");
}

// A cut anywhere inside a tuple fails the read of the column it cuts, with
// the status that names that column's type, and a cursor over fewer bytes
// than the null bitmap fails to open.
TEST(TupleCursorTest, EveryTruncationFailsAtTheColumnItCuts) {
  TableSchema s = MakeSchema();
  Row row{Value::Int(1), Value::Varchar("abcd"), Value::Double(1.5), Value::Bool(false)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(s, row, &bytes).ok());
  // Byte offsets: bitmap [0,1), int [1,9), varchar length [9,13), varchar
  // data [13,17), double [17,25), bool [25,26).
  ASSERT_EQ(bytes.size(), 26u);
  auto want = [](size_t cut) -> std::string {
    if (cut < 1) return "tuple too short for null bitmap";
    if (cut < 9) return "tuple truncated (int)";
    if (cut < 13) return "tuple truncated (varchar len)";
    if (cut < 17) return "tuple truncated (varchar data)";
    if (cut < 25) return "tuple truncated (double)";
    return "tuple truncated (bool)";
  };
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE(cut);
    Row back;
    Status st = TupleCodec::Deserialize(s, bytes.data(), cut, &back);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_EQ(st.message(), want(cut));
  }
}

TEST(RowHelpersTest, RowToString) {
  Row r{Value::Int(1), Value::Varchar("x"), Value::Null(TypeId::kDouble)};
  EXPECT_EQ(RowToString(r), "(1, x, NULL)");
}

TEST(RowHelpersTest, RowEqDistinguishesArity) {
  Row a{Value::Int(1)};
  Row b{Value::Int(1), Value::Int(2)};
  EXPECT_FALSE(RowEq()(a, b));
  EXPECT_TRUE(RowEq()(a, Row{Value::Int(1)}));
}

}  // namespace
}  // namespace pse

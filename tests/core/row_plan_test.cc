// The row plan: LogicalDatabase::PlanTableRows resolves once per table how
// each column is reached from the anchor entity's row, and BuildRow follows
// it for every row. The oracle is the walk the loader ran per row and per
// column before plans existed: the table's TableSchema, each column's
// attribute by name, and that attribute's FK chain from the anchor, hop by
// hop, NULL at the first NULL or dangling FK. For every table of every
// layout on the TPC-W fleet trajectory, of a TPC-W layout whose chains run
// four hops, and of random dependency-closed Bookstore subsets, the plan
// must build the oracle's row for every anchor row, with NULL and dangling
// FKs in the data. A materialized heap must equal, row for row and page
// for page, one loaded from the oracle's rows, and so must the tables the
// migration executor's create copy builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/migration_executor.h"
#include "tests/common/test_db_builder.h"
#include "tests/core/tpcw_trajectory.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::HeapRows;

/// What the oracle met on its walks.
struct OracleTally {
  size_t null_fk = 0;   ///< chains cut by a NULL FK
  size_t dangling = 0;  ///< chains cut by an FK whose parent is gone
  size_t max_hops = 0;  ///< longest chain walked
};

/// The value of `attr` seen from an anchor row: the attribute's FK chain
/// from the anchor, walked hop by hop; NULL when an FK on the way is NULL
/// or dangling.
Result<Value> OracleValue(const LogicalDatabase& data, EntityId anchor, const Row& anchor_row,
                          AttrId attr, OracleTally* tally) {
  const LogicalSchema& L = data.logical();
  const EntityId target = L.attr(attr).entity;
  if (target == anchor) return data.AttrOfRow(anchor, anchor_row, attr);
  PSE_ASSIGN_OR_RETURN(std::span<const AttrId> path, L.FkPath(anchor, target));
  tally->max_hops = std::max(tally->max_hops, path.size());
  EntityId cur_entity = anchor;
  const Row* cur_row = &anchor_row;
  for (AttrId fk : path) {
    PSE_ASSIGN_OR_RETURN(Value fk_value, data.AttrOfRow(cur_entity, *cur_row, fk));
    if (fk_value.is_null()) {
      ++tally->null_fk;
      return Value::Null(L.attr(attr).type);
    }
    const EntityId next = *L.attr(fk).references;
    const Row* next_row = data.FindByKey(next, fk_value.AsInt());
    if (next_row == nullptr) {
      ++tally->dangling;
      return Value::Null(L.attr(attr).type);
    }
    cur_entity = next;
    cur_row = next_row;
  }
  return data.AttrOfRow(cur_entity, *cur_row, attr);
}

/// The oracle's row of `schema` table `idx` for one anchor row.
Result<Row> OracleRow(const LogicalDatabase& data, const PhysicalSchema& schema, size_t idx,
                      const Row& anchor_row, OracleTally* tally) {
  const TableSchema ts = schema.ToTableSchema(idx);
  Row out;
  for (const Column& col : ts.columns()) {
    PSE_ASSIGN_OR_RETURN(AttrId a, data.logical().AttrByName(col.name));
    PSE_ASSIGN_OR_RETURN(Value v,
                         OracleValue(data, schema.tables()[idx].anchor, anchor_row, a, tally));
    out.push_back(std::move(v));
  }
  return out;
}

/// Value for value: same type, same NULL-ness, equal when not NULL.
bool IdenticalRows(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() && a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + " ";
  return out;
}

/// For every table of `schema` and every anchor row, the plan's row equals
/// the oracle's.
void ExpectPlansMatchOracle(const LogicalDatabase& data, const PhysicalSchema& schema,
                            const std::string& where, OracleTally* tally) {
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    auto plan = data.PlanTableRows(schema, i);
    ASSERT_TRUE(plan.ok()) << where << " " << t.name << ": " << plan.status().ToString();
    EXPECT_EQ(plan->anchor, t.anchor) << where << " " << t.name;
    for (const Row& anchor_row : data.Rows(t.anchor)) {
      auto want = OracleRow(data, schema, i, anchor_row, tally);
      ASSERT_TRUE(want.ok()) << where << " " << t.name << ": " << want.status().ToString();
      const Row got = data.BuildRow(*plan, anchor_row);
      ASSERT_TRUE(IdenticalRows(got, *want))
          << where << " " << t.name << "\n got:  " << RowText(got) << "\n want: "
          << RowText(*want);
    }
  }
}

/// Loads every table of `schema` into `db` from the oracle's rows, in
/// anchor-row order and in the order Materialize works: create, secondary
/// indexes, rows, ANALYZE, one table after another.
void LoadFromOracle(Database* db, const LogicalDatabase& data, const PhysicalSchema& schema) {
  OracleTally unused;
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    ASSERT_TRUE(db->CreateTable(schema.ToTableSchema(i)).ok()) << t.name;
    ASSERT_TRUE(EnsureSecondaryIndexes(db, schema, i).ok()) << t.name;
    for (const Row& anchor_row : data.Rows(t.anchor)) {
      auto row = OracleRow(data, schema, i, anchor_row, &unused);
      ASSERT_TRUE(row.ok()) << t.name << ": " << row.status().ToString();
      ASSERT_TRUE(db->Insert(t.name, *row).ok()) << t.name;
    }
    ASSERT_TRUE(db->Analyze(t.name).ok()) << t.name;
  }
}

/// The heap of table `name` in `got` equals the one in `want`: same rows in
/// the same order, on as many pages.
void ExpectSameHeap(Database* got, Database* want, const std::string& name,
                    const std::string& where) {
  const std::vector<Row> got_rows = HeapRows(got, name);
  const std::vector<Row> want_rows = HeapRows(want, name);
  ASSERT_EQ(got_rows.size(), want_rows.size()) << where << " " << name;
  for (size_t r = 0; r < want_rows.size(); ++r) {
    ASSERT_TRUE(IdenticalRows(got_rows[r], want_rows[r]))
        << where << " " << name << " heap row " << r << "\n got:  " << RowText(got_rows[r])
        << "\n want: " << RowText(want_rows[r]);
  }
  auto got_info = got->GetTable(name);
  auto want_info = want->GetTable(name);
  ASSERT_TRUE(got_info.ok() && want_info.ok()) << where << " " << name;
  EXPECT_EQ((*got_info)->heap->NumPages(), (*want_info)->heap->NumPages()) << where << " " << name;
}

/// Materialize's heaps equal the oracle-loaded ones, and the two loads cost
/// the same page I/O, in a pool small enough to evict.
void ExpectMaterializeMatchesOracle(const LogicalDatabase& data, const PhysicalSchema& schema,
                                    const std::string& where) {
  constexpr size_t kPoolPages = 32;
  Database materialized(kPoolPages);
  Database oracle(kPoolPages);
  ASSERT_TRUE(data.Materialize(&materialized, schema).ok()) << where;
  LoadFromOracle(&oracle, data, schema);
  EXPECT_EQ(materialized.TotalIo(), oracle.TotalIo()) << where;
  for (const PhysicalTable& t : schema.tables()) {
    ExpectSameHeap(&materialized, &oracle, t.name, where);
  }
}

/// Value of the key of `row`, a row of `entity`.
int64_t KeyOf(const LogicalDatabase& data, EntityId entity, const Row& row) {
  return data.AttrOfRow(entity, row, data.logical().entity(entity).key)->AsInt();
}

/// Sets `fk` to NULL on every `stride`-th row of its entity.
void NullFks(LogicalDatabase* data, AttrId fk, size_t stride) {
  const EntityId e = data->logical().attr(fk).entity;
  std::vector<int64_t> keys;
  for (size_t r = 0; r < data->NumRows(e); r += stride) {
    keys.push_back(KeyOf(*data, e, data->Rows(e)[r]));
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(data->UpdateRow(e, k, {fk}, {Value::Null(TypeId::kInt64)}).ok());
  }
}

/// Deletes every `stride`-th row of `entity`, leaving the FKs that reference
/// those rows dangling.
void DeleteParents(LogicalDatabase* data, EntityId entity, size_t stride) {
  std::vector<int64_t> keys;
  for (size_t r = 0; r < data->NumRows(entity); r += stride) {
    keys.push_back(KeyOf(*data, entity, data->Rows(entity)[r]));
  }
  for (int64_t k : keys) ASSERT_TRUE(data->DeleteRow(entity, k).ok());
}

AttrId Attr(const LogicalSchema& L, const char* name) {
  auto a = L.AttrByName(name);
  EXPECT_TRUE(a.ok()) << name;
  return a.ok() ? *a : kInvalidId;
}

/// Tiny TPC-W data with a NULL or dangling FK on every link of the order
/// line -> orders -> customer -> address -> country and order line -> item
/// -> author chains.
std::unique_ptr<LogicalDatabase> BrokenTpcwData(const TpcwSchema& tpcw) {
  auto data = GenerateTpcwData(tpcw, ScaleTiny(), 7);
  const LogicalSchema& L = tpcw.logical;
  NullFks(data.get(), Attr(L, "o_c_id"), 11);
  NullFks(data.get(), Attr(L, "c_addr_id"), 13);
  NullFks(data.get(), Attr(L, "addr_co_id"), 17);
  NullFks(data.get(), Attr(L, "i_a_id"), 19);
  NullFks(data.get(), Attr(L, "ol_i_id"), 23);
  DeleteParents(data.get(), tpcw.customer, 7);
  DeleteParents(data.get(), tpcw.address, 9);
  DeleteParents(data.get(), tpcw.country, 5);
  DeleteParents(data.get(), tpcw.author, 6);
  DeleteParents(data.get(), tpcw.item, 10);
  DeleteParents(data.get(), tpcw.orders, 12);
  return data;
}

/// A TPC-W layout whose order-line table embeds its order, the order's
/// customer, the customer's address and the address's country (four hops),
/// and its item and the item's author (two hops).
PhysicalSchema DeepTpcwLayout(const TpcwSchema& tpcw) {
  const LogicalSchema& L = tpcw.logical;
  PhysicalSchema deep(&L);
  std::vector<AttrId> line;
  for (const char* name : {"ol_o_id", "ol_i_id", "ol_qty", "o_c_id", "o_date", "c_addr_id",
                           "c_uname", "addr_co_id", "addr_city", "co_name", "i_a_id", "i_title",
                           "a_fname"}) {
    line.push_back(Attr(L, name));
  }
  EXPECT_TRUE(deep.AddTable("line_deep", tpcw.order_line, line).ok());
  EXPECT_TRUE(deep.AddTable("payment", tpcw.cc_xacts,
                            {Attr(L, "cx_o_id"), Attr(L, "cx_amount"), Attr(L, "o_total")})
                  .ok());
  return deep;
}

TEST(RowPlan, BuildsTheOraclesRowsOnEveryTpcwTrajectoryLayout) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = BrokenTpcwData(*tpcw);
  OracleTally tally;
  for (size_t s = 0; s <= schedule->steps(); ++s) {
    ExpectPlansMatchOracle(*data, schedule->at(s), "step " + std::to_string(s), &tally);
  }
  EXPECT_GT(tally.null_fk, 0u);
  EXPECT_GT(tally.dangling, 0u);
}

TEST(RowPlan, FollowsChainsOfFourHopsOnceEach) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  const PhysicalSchema deep = DeepTpcwLayout(*tpcw);
  ASSERT_TRUE(deep.Validate().ok()) << deep.Validate().ToString();
  auto data = BrokenTpcwData(*tpcw);
  auto plan = data->PlanTableRows(deep, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // order_line -> orders -> customer -> address -> country, and
  // order_line -> item -> author: one hop per FK on the way, however many
  // columns each parent contributes.
  EXPECT_EQ(plan->hops.size(), 6u);
  OracleTally tally;
  ExpectPlansMatchOracle(*data, deep, "deep layout", &tally);
  EXPECT_EQ(tally.max_hops, 4u);
  EXPECT_GT(tally.null_fk, 0u);
  EXPECT_GT(tally.dangling, 0u);
}

TEST(RowPlan, BuildsTheOraclesRowsOnRandomBookstoreLayouts) {
  auto bs = Bookstore::Make();
  auto data = bs->MakeData(12, 6, 20);
  NullFks(data.get(), bs->b_a_id, 9);
  DeleteParents(data.get(), bs->author, 4);
  auto opset = ComputeOperatorSet(bs->source, bs->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  Rng rng(1809);
  OracleTally tally;
  for (int draw = 0; draw < 24; ++draw) {
    const PhysicalSchema layout = testutil::RandomCandidate(bs->source, *opset, &rng);
    ExpectPlansMatchOracle(*data, layout, "draw " + std::to_string(draw) + "\n" + layout.ToString(),
                           &tally);
    ExpectMaterializeMatchesOracle(*data, layout, "draw " + std::to_string(draw));
  }
  EXPECT_GT(tally.null_fk, 0u);
  EXPECT_GT(tally.dangling, 0u);
}

TEST(RowPlan, MaterializedHeapsEqualOracleLoadedHeaps) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = BrokenTpcwData(*tpcw);
  for (size_t s = 0; s <= schedule->steps(); ++s) {
    ExpectMaterializeMatchesOracle(*data, schedule->at(s), "step " + std::to_string(s));
  }
  ExpectMaterializeMatchesOracle(*data, DeepTpcwLayout(*tpcw), "deep layout");
}

TEST(RowPlan, PrefixThenRangeEqualsOracleLoadedHeaps) {
  // The phase loads of the simulation: a prefix of every entity, then the
  // rest as one range. Each table's rows must land as the oracle's rows of
  // the prefix followed by those of the range.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto data = BrokenTpcwData(*tpcw);
  const PhysicalSchema deep = DeepTpcwLayout(*tpcw);
  std::vector<size_t> half(tpcw->logical.num_entities());
  for (EntityId e = 0; e < half.size(); ++e) half[e] = data->NumRows(e) / 2;
  Database loaded(32);
  ASSERT_TRUE(data->MaterializePrefix(&loaded, deep, half).ok());
  ASSERT_TRUE(data->MaterializeRange(&loaded, deep, half, {}).ok());
  OracleTally unused;
  for (size_t i = 0; i < deep.tables().size(); ++i) {
    const PhysicalTable& t = deep.tables()[i];
    const std::vector<Row> got = HeapRows(&loaded, t.name);
    ASSERT_EQ(got.size(), data->NumRows(t.anchor)) << t.name;
    for (size_t r = 0; r < got.size(); ++r) {
      auto want = OracleRow(*data, deep, i, data->Rows(t.anchor)[r], &unused);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(IdenticalRows(got[r], *want)) << t.name << " heap row " << r;
    }
  }
}

TEST(RowPlan, CreateCopyBuildsTheOraclesRowsOnTheTpcwTrajectory) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto data = BrokenTpcwData(*tpcw);
  Database db(64);
  ASSERT_TRUE(data->Materialize(&db, schedule->at(0)).ok());
  MigrationOptions options;
  options.batch_rows = 100;  // several batches per created table
  MigrationExecutor exec(&db, data.get());
  exec.set_options(options);
  PhysicalSchema schema = schedule->at(0);
  size_t creates = 0;
  OracleTally unused;
  for (size_t s = 0; s < schedule->steps(); ++s) {
    const MigrationOperator& op = schedule->ops[s];
    auto io = exec.Apply(op, &schema);
    ASSERT_TRUE(io.ok()) << "step " << s << ": " << io.status().ToString();
    if (op.kind != OperatorKind::kCreateTable) continue;
    ++creates;
    const PhysicalSchema& after = schedule->at(s + 1);
    for (size_t i = 0; i < after.tables().size(); ++i) {
      const PhysicalTable& t = after.tables()[i];
      if (schedule->at(s).TableByName(t.name).ok()) continue;  // not built here
      const std::vector<Row> got = HeapRows(&db, t.name);
      ASSERT_EQ(got.size(), data->NumRows(t.anchor)) << t.name;
      for (size_t r = 0; r < got.size(); ++r) {
        auto want = OracleRow(*data, after, i, data->Rows(t.anchor)[r], &unused);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_TRUE(IdenticalRows(got[r], *want)) << "step " << s << " " << t.name << " row " << r;
      }
    }
  }
  EXPECT_GT(creates, 0u) << "the trajectory must create a table";
}

}  // namespace
}  // namespace pse

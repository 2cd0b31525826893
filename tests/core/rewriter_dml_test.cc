// Write rewriter tests: RewriteDml plan shapes, servability agreement with
// the static writability analyzer, ProvenanceStore semantics, the SQL
// bridge, the randomized static-schema oracles — every DML statement
// executed through the DmlRouter is mirrored on an entity-level
// LogicalDatabase, and the physical table states must equal a fresh
// materialization of the mirror after every burst (the write-side analogue
// of the rewriter's read invariant), on the bookstore and on TPC-W tenants
// along the fleet trajectory — and the page fetches of keyed statements,
// which locate their rows through B+ tree probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/writability.h"
#include "common/rng.h"
#include "core/logical_database.h"
#include "core/rewriter_dml.h"
#include "fleet/schedule.h"
#include "sql/session.h"
#include "tests/common/test_db_builder.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::ExpectStateMatchesMirror;
using testutil::MirrorApply;
using testutil::SameRows;
using testutil::TableRows;

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

const VersionTable* FindTable(const std::vector<VersionTable>& tables, const std::string& name) {
  for (const auto& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

class RewriteDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    old_tables_ = VersionTablesOf(bs_->source);
    new_tables_ = VersionTablesOf(bs_->object);
  }

  LogicalDml MakeDml(DmlKind kind, const VersionTable& t, int64_t key,
                     std::vector<AttrId> attrs = {}, std::vector<Value> values = {}) {
    LogicalDml dml;
    dml.kind = kind;
    dml.table = t;
    dml.key = key;
    dml.set_attrs = std::move(attrs);
    dml.set_values = std::move(values);
    return dml;
  }

  std::unique_ptr<Bookstore> bs_;
  std::vector<VersionTable> old_tables_;
  std::vector<VersionTable> new_tables_;
};

// ---------------------------------------------------------------------------
// Plan shapes
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, InsertOnOwnLayoutIsOneAnchorInsert) {
  const VersionTable* book = FindTable(old_tables_, "book");
  ASSERT_NE(book, nullptr);
  auto bound = RewriteDml(MakeDml(DmlKind::kInsert, *book, 7, {bs_->b_title},
                                  {Value::Varchar("t")}),
                          bs_->source);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->level, Writability::kSafe);
  ASSERT_EQ(bound->writes.size(), 1u);
  EXPECT_EQ(bound->writes[0].op, FragmentWriteOp::kAnchorInsert);
  EXPECT_EQ(bound->writes[0].table, "book");
}

TEST_F(RewriteDmlTest, InsertAcrossCombineFansOutToMergeAndAnchorInsert) {
  // New-version glossary INSERT on the object schema: the author values ride
  // along inside the book row, so the plan must merge the parent (dangling
  // repairs on the denormalized fragment) before the anchor insert.
  const VersionTable* glossary = FindTable(new_tables_, "glossary");
  ASSERT_NE(glossary, nullptr);
  auto bound = RewriteDml(
      MakeDml(DmlKind::kInsert, *glossary, 7, {bs_->b_a_id, bs_->a_name},
              {Value::Int(3), Value::Varchar("a")}),
      bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // One physical table stores the whole version table, so the classifier
  // calls this kSafe — the fan-out below is repair work, not propagation.
  EXPECT_EQ(bound->level, Writability::kSafe);
  bool saw_merge = false;
  bool saw_insert = false;
  size_t insert_pos = 0;
  size_t merge_pos = 0;
  for (size_t i = 0; i < bound->writes.size(); ++i) {
    const FragmentWrite& w = bound->writes[i];
    if (w.op == FragmentWriteOp::kParentMerge && w.entity == bs_->author) {
      saw_merge = true;
      merge_pos = i;
    }
    if (w.op == FragmentWriteOp::kAnchorInsert && w.table == "glossary") {
      saw_insert = true;
      insert_pos = i;
    }
  }
  EXPECT_TRUE(saw_merge);
  ASSERT_TRUE(saw_insert);
  EXPECT_LT(merge_pos, insert_pos) << "parent merges must precede the anchor insert";
}

TEST_F(RewriteDmlTest, UpdateAcrossSplitFansOutToEveryFragment) {
  // Old-version user UPDATE of u_name + u_addr on the object schema lands on
  // both split fragments, each matched on the user key.
  const VersionTable* user = FindTable(old_tables_, "user");
  ASSERT_NE(user, nullptr);
  auto bound = RewriteDml(
      MakeDml(DmlKind::kUpdate, *user, 3, {bs_->u_name, bs_->u_addr},
              {Value::Varchar("n"), Value::Varchar("a")}),
      bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->level, Writability::kNeedsPropagation);
  std::vector<std::string> tables;
  for (const FragmentWrite& w : bound->writes) {
    EXPECT_EQ(w.op, FragmentWriteOp::kKeyedUpdate);
    tables.push_back(w.table);
  }
  std::sort(tables.begin(), tables.end());
  EXPECT_EQ(tables, (std::vector<std::string>{"user_gen", "user_rest"}));
}

TEST_F(RewriteDmlTest, DeleteOfParentEntityPlansFanClears) {
  // Old-version author DELETE on the object schema: no author-anchored
  // fragment exists, so the whole plan is fan-clears on the denormalized
  // glossary rows.
  const VersionTable* author = FindTable(old_tables_, "author");
  ASSERT_NE(author, nullptr);
  auto bound = RewriteDml(MakeDml(DmlKind::kDelete, *author, 2), bs_->object);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->writes.size(), 1u);
  const FragmentWrite& w = bound->writes[0];
  EXPECT_EQ(w.op, FragmentWriteOp::kFanClear);
  EXPECT_EQ(w.table, "glossary");
  // Cleared columns: the author's own (a_id, a_name, a_bio) but NOT the
  // book's stored FK b_a_id (the book keeps its dangling reference).
  const PhysicalTable& glossary = bs_->object.tables()[w.table_idx];
  for (size_t c : w.cols) {
    EXPECT_NE(glossary.attrs[c], bs_->b_a_id);
  }
  EXPECT_EQ(w.cols.size(), 3u);
}

TEST_F(RewriteDmlTest, MalformedStatementsAreInvalidArgument) {
  const VersionTable* book = FindTable(old_tables_, "book");
  ASSERT_NE(book, nullptr);
  // SELECT kind.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kSelect, *book, 1), bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
  // Arity mismatch.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kUpdate, *book, 1, {bs_->b_title}, {}), bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
  // Attribute outside the version table.
  EXPECT_TRUE(RewriteDml(MakeDml(DmlKind::kUpdate, *book, 1, {bs_->u_addr},
                                 {Value::Varchar("x")}),
                         bs_->source)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Servability agrees with the static analyzer
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, ServabilityAgreesWithClassifyVersionTable) {
  const PhysicalSchema* schemas[] = {&bs_->source, &bs_->object};
  const DmlKind kinds[] = {DmlKind::kInsert, DmlKind::kUpdate, DmlKind::kDelete};
  for (const PhysicalSchema* schema : schemas) {
    for (const auto& tables : {old_tables_, new_tables_}) {
      for (const VersionTable& vt : tables) {
        auto cells = ClassifyVersionTable(vt, *schema);
        for (DmlKind kind : kinds) {
          // Statement touching every attribute of the version table — the
          // shape the classifier's per-table verdict is about.
          std::vector<AttrId> attrs;
          std::vector<Value> values;
          if (kind != DmlKind::kDelete) {
            for (AttrId a : vt.attrs) {
              attrs.push_back(a);
              values.push_back(Value::Null(schema->logical()->attr(a).type));
            }
          }
          auto bound = RewriteDml(MakeDml(kind, vt, 424242, attrs, values), *schema);
          const WritabilityCell& cell = cells[static_cast<size_t>(kind)];
          if (cell.level == Writability::kUnservable) {
            ASSERT_FALSE(bound.ok())
                << vt.name << " " << DmlKindName(kind) << " must be unservable: " << cell.detail;
            EXPECT_TRUE(bound.status().IsBindError()) << bound.status().ToString();
          } else {
            ASSERT_TRUE(bound.ok()) << vt.name << " " << DmlKindName(kind) << ": "
                                    << bound.status().ToString();
            EXPECT_EQ(bound->level, cell.level) << vt.name << " " << DmlKindName(kind);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProvenanceStore
// ---------------------------------------------------------------------------

TEST(ProvenanceStore, PutGetEraseRowsOf) {
  ProvenanceStore store;
  EXPECT_EQ(store.NumRows(), 0u);
  store.EnsureRow(1, 10);
  EXPECT_TRUE(store.Has(1, 10));
  EXPECT_FALSE(store.Get(1, 10, 5).has_value());
  store.Put(1, 10, 5, Value::Varchar("x"));
  store.Put(1, 12, 5, Value::Varchar("y"));
  store.Put(2, 10, 7, Value::Int(3));
  ASSERT_TRUE(store.Get(1, 10, 5).has_value());
  EXPECT_EQ(store.Get(1, 10, 5)->AsString(), "x");
  auto rows = store.RowsOf(1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 10);
  EXPECT_EQ(rows[1].first, 12);
  store.Erase(1, 10);
  EXPECT_FALSE(store.Has(1, 10));
  EXPECT_TRUE(store.Has(2, 10));
  EXPECT_EQ(store.NumRows(), 2u);
}

// ---------------------------------------------------------------------------
// Static-schema behaviour of the router
// ---------------------------------------------------------------------------

TEST_F(RewriteDmlTest, DeleteSnapshotsParentValuesIntoProvenance) {
  // Deleting every book of an author on the object schema destroys the only
  // physical storage of the author's attributes; they must survive in the
  // provenance store and feed the ladder of a later insert.
  auto data = bs_->MakeData(3, 2, 4);
  Database db(1024);
  ASSERT_TRUE(data->Materialize(&db, bs_->object).ok());
  DmlRouter router(&db);
  const VersionTable* glossary = FindTable(new_tables_, "glossary");
  ASSERT_NE(glossary, nullptr);

  // Author 1's books are keys 2 and 3 (MakeData: books_per_author = 2).
  for (int64_t b : {2, 3}) {
    ASSERT_TRUE(router.Execute(MakeDml(DmlKind::kDelete, *glossary, b), bs_->object).ok());
  }
  ASSERT_TRUE(router.provenance()->Has(bs_->author, 1));
  auto name = router.provenance()->Get(bs_->author, 1, bs_->a_name);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->AsString(), "author-1");

  // A new book referencing author 1 resolves the author's values from
  // provenance — no physical row carries them anymore.
  ASSERT_TRUE(router
                  .Execute(MakeDml(DmlKind::kInsert, *glossary, 100,
                                   {bs_->b_title, bs_->b_a_id},
                                   {Value::Varchar("back"), Value::Int(1)}),
                           bs_->object)
                  .ok());
  std::vector<Row> rows = TableRows(&db, "glossary");
  bool found = false;
  auto g_idx = bs_->object.TableByName("glossary");
  ASSERT_TRUE(g_idx.ok());
  TableSchema g_schema = bs_->object.ToTableSchema(*g_idx);
  auto col_of = [&](AttrId a) {
    const std::string& name = bs_->logical.attr(a).name;
    for (size_t c = 0; c < g_schema.num_columns(); ++c) {
      if (g_schema.column(c).name == name) return c;
    }
    ADD_FAILURE() << "no column " << name;
    return size_t{0};
  };
  for (const Row& r : rows) {
    if (r[col_of(bs_->b_id)].SqlEquals(Value::Int(100))) {
      found = true;
      EXPECT_EQ(r[col_of(bs_->a_name)].AsString(), "author-1");
      EXPECT_FALSE(r[col_of(bs_->a_id)].is_null());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(router.stats().provenance_rows, 0u);
  EXPECT_GT(router.stats().fragment_writes, 0u);
}

// A DELETE's fan-clear NULLs every column whose FK chain runs through the
// deleted row. Here one order_line-anchored fragment stores the line's item
// and that item's author, and no fragment is anchored at author, so those
// columns are the author's only copy. Deleting the item must not delete
// the author: a new line that reaches the same author through a new item
// reads the author's values back.
TEST(DmlFanClearTest, DeletingAMiddleRowKeepsTheGrandparentItClears) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  const LogicalSchema& L = tpcw->logical;
  std::map<std::string, AttrId> attr;
  for (const char* name : {"ol_id", "ol_i_id", "ol_qty", "i_a_id", "i_title", "a_id", "a_fname",
                           "a_lname"}) {
    auto id = L.AttrByName(name);
    ASSERT_TRUE(id.ok()) << name;
    attr[name] = *id;
  }
  PhysicalSchema layout(&L);
  ASSERT_TRUE(layout
                  .AddTable("line", tpcw->order_line,
                            {attr["ol_i_id"], attr["ol_qty"], attr["i_a_id"], attr["a_fname"],
                             attr["a_lname"]})
                  .ok());
  ASSERT_TRUE(layout.AddTable("item", tpcw->item, {attr["i_title"]}).ok());
  ASSERT_TRUE(layout.Validate().ok()) << layout.Validate().ToString();

  // Author 1 has one item (10) with one line (100); author 2's chain is
  // left alone.
  LogicalDatabase data(&L);
  auto add = [&](EntityId e, int64_t key, const std::vector<AttrId>& attrs,
                 const std::vector<Value>& values) {
    ASSERT_TRUE(data.AddRow(e, testutil::FullEntityRow(L, e, key, attrs, values)).ok());
  };
  const std::map<int64_t, std::pair<std::string, std::string>> names = {{1, {"Ann", "Lee"}},
                                                                        {2, {"Bo", "Kim"}}};
  for (const auto& [a, name] : names) {
    add(tpcw->author, a, {attr["a_fname"], attr["a_lname"]},
        {Value::Varchar(name.first), Value::Varchar(name.second)});
    add(tpcw->item, 10 * a, {attr["i_title"], attr["i_a_id"]},
        {Value::Varchar("title"), Value::Int(a)});
    add(tpcw->order_line, 100 * a, {attr["ol_i_id"], attr["ol_qty"]},
        {Value::Int(10 * a), Value::Int(3)});
  }
  Database db(256);
  ASSERT_TRUE(data.Materialize(&db, layout).ok());
  DmlRouter router(&db);
  const std::vector<VersionTable> tables = VersionTablesOf(layout);
  const VersionTable* line = FindTable(tables, "line");
  const VersionTable* item = FindTable(tables, "item");
  ASSERT_TRUE(line != nullptr && item != nullptr);

  LogicalDml del;
  del.kind = DmlKind::kDelete;
  del.table = *item;
  del.key = 10;
  ASSERT_TRUE(router.Execute(del, layout).ok());
  // A new item 11 of author 1, reached through a new line 101.
  LogicalDml ins;
  ins.kind = DmlKind::kInsert;
  ins.table = *line;
  ins.key = 101;
  ins.set_attrs = {attr["i_a_id"], attr["ol_i_id"], attr["ol_qty"]};
  ins.set_values = {Value::Int(1), Value::Int(11), Value::Int(1)};
  ASSERT_TRUE(router.Execute(ins, layout).ok());

  auto line_idx = layout.TableByName("line");
  ASSERT_TRUE(line_idx.ok());
  const TableSchema line_schema = layout.ToTableSchema(*line_idx);
  auto col = [&](const char* name) {
    for (size_t c = 0; c < line_schema.num_columns(); ++c) {
      if (line_schema.column(c).name == name) return c;
    }
    ADD_FAILURE() << "no column " << name;
    return size_t{0};
  };
  std::map<int64_t, Row> lines;
  for (const Row& r : TableRows(&db, "line")) lines[r[col("ol_id")].AsInt()] = r;
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[100][col("a_fname")].is_null()) << "the fan-clear left line 100's author";
  const std::vector<std::pair<int64_t, int64_t>> line_authors = {{101, 1}, {200, 2}};
  for (const auto& [key, author] : line_authors) {
    SCOPED_TRACE("line " + std::to_string(key));
    const Row& r = lines[key];
    EXPECT_TRUE(r[col("a_id")].SqlEquals(Value::Int(author))) << r[col("a_id")].ToString();
    EXPECT_TRUE(r[col("a_fname")].SqlEquals(Value::Varchar(names.at(author).first)))
        << r[col("a_fname")].ToString();
    EXPECT_TRUE(r[col("a_lname")].SqlEquals(Value::Varchar(names.at(author).second)))
        << r[col("a_lname")].ToString();
  }
}

TEST_F(RewriteDmlTest, InsertAndDeleteAreIdempotent) {
  auto data = bs_->MakeData(2, 2, 3);
  Database db(1024);
  ASSERT_TRUE(data->Materialize(&db, bs_->source).ok());
  DmlRouter router(&db);
  const VersionTable* user = FindTable(old_tables_, "user");
  ASSERT_NE(user, nullptr);

  size_t before = TableRows(&db, "user").size();
  LogicalDml ins = MakeDml(DmlKind::kInsert, *user, 50, {bs_->u_name}, {Value::Varchar("n")});
  ASSERT_TRUE(router.Execute(ins, bs_->source).ok());
  ASSERT_TRUE(router.Execute(ins, bs_->source).ok());  // replay: no-op
  EXPECT_EQ(TableRows(&db, "user").size(), before + 1);

  LogicalDml del = MakeDml(DmlKind::kDelete, *user, 50);
  ASSERT_TRUE(router.Execute(del, bs_->source).ok());
  ASSERT_TRUE(router.Execute(del, bs_->source).ok());  // absent: no-op
  EXPECT_EQ(TableRows(&db, "user").size(), before);
  // Update of an absent row is a no-op, not an error.
  ASSERT_TRUE(router
                  .Execute(MakeDml(DmlKind::kUpdate, *user, 50, {bs_->u_name},
                                   {Value::Varchar("x")}),
                           bs_->source)
                  .ok());
  EXPECT_EQ(TableRows(&db, "user").size(), before);
}

// ---------------------------------------------------------------------------
// Randomized static-schema oracle
// ---------------------------------------------------------------------------

class RewriteDmlOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteDmlOracle, RouterMatchesEntityLevelMirrorOnBothLayouts) {
  auto bs = Bookstore::Make();
  std::vector<VersionTable> old_tables = VersionTablesOf(bs->source);
  std::vector<VersionTable> new_tables = VersionTablesOf(bs->object);
  std::vector<VersionTable> all_tables = old_tables;
  all_tables.insert(all_tables.end(), new_tables.begin(), new_tables.end());

  const PhysicalSchema* schemas[] = {&bs->source, &bs->object};
  for (const PhysicalSchema* schema : schemas) {
    SCOPED_TRACE(schema == &bs->source ? "source schema" : "object schema");
    Rng rng(GetParam() * 131 + (schema == &bs->source ? 0 : 7));
    const LogicalSchema& lg = bs->logical;

    // Mirror and physical database start from the same data.
    auto mirror = bs->MakeData(4, 3, 8);
    Database db(2048);
    ASSERT_TRUE(mirror->Materialize(&db, *schema).ok());
    DmlRouter router(&db);

    auto random_value = [&](AttrId a) -> Value {
      const LogicalAttribute& attr = lg.attr(a);
      if (attr.references.has_value()) {
        // FK: mostly valid parents, sometimes dangling, sometimes NULL.
        if (rng.Bernoulli(0.1)) return Value::Null(TypeId::kInt64);
        return Value::Int(rng.UniformInt(0, 6));
      }
      switch (attr.type) {
        case TypeId::kInt64:
          return Value::Int(rng.UniformInt(-5, 40));
        case TypeId::kDouble:
          return Value::Double(static_cast<double>(rng.UniformInt(0, 99)) / 4.0);
        case TypeId::kVarchar:
          return Value::Varchar("v" + std::to_string(rng.UniformInt(0, 999)));
        case TypeId::kBoolean:
          return Value::Bool(rng.Bernoulli(0.5));
      }
      return Value::Null(attr.type);
    };

    uint64_t applied = 0;
    uint64_t unservable = 0;
    for (int iter = 0; iter < 120; ++iter) {
      const VersionTable& vt = all_tables[rng.Index(all_tables.size())];
      LogicalDml dml;
      double roll = rng.UniformDouble();
      dml.kind = roll < 0.5 ? DmlKind::kInsert : roll < 0.8 ? DmlKind::kUpdate : DmlKind::kDelete;
      dml.table = vt;
      // Keys overlap the MakeData ranges so existing/missing rows both occur.
      dml.key = rng.UniformInt(0, 24);
      if (dml.kind != DmlKind::kDelete) {
        for (AttrId a : vt.attrs) {
          if (!rng.Bernoulli(0.6)) continue;
          dml.set_attrs.push_back(a);
          dml.set_values.push_back(random_value(a));
        }
      }

      Status s = router.Execute(dml, *schema);
      if (s.IsBindError()) {
        ++unservable;
        continue;  // unservable on this layout; the mirror skips it too
      }
      ASSERT_TRUE(s.ok()) << dml.ToString() << ": " << s.ToString();
      MirrorApply(mirror.get(), dml);
      ++applied;
      if (iter % 20 == 19) {
        ExpectStateMatchesMirror(&db, *mirror, *schema,
                                 "after statement " + std::to_string(iter));
      }
    }
    ExpectStateMatchesMirror(&db, *mirror, *schema, "after the full workload");
    EXPECT_GT(applied, 0u);
  }
}

/// Every parent key a fragment of `schema` embeds (a combine stores the
/// parent inside its children's rows) equals the chain FK that references
/// that parent, or is NULL: the premise of finding embedded-key rows through
/// that FK's index. Returns the number of non-NULL embedded keys seen.
size_t ExpectEmbeddedKeysFollowTheirFks(Database* db, const PhysicalSchema& schema,
                                        const std::string& where) {
  const LogicalSchema& lg = *schema.logical();
  size_t seen = 0;
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const PhysicalTable& t = schema.tables()[i];
    const TableSchema ts = schema.ToTableSchema(i);
    for (AttrId a : t.attrs) {
      const LogicalAttribute& attr = lg.attr(a);
      if (!attr.is_key || attr.entity == t.anchor) continue;
      auto path = lg.FkPath(t.anchor, attr.entity);
      if (!path.ok() || path->empty()) {
        ADD_FAILURE() << where << ": no FK chain from " << t.name << " to " << attr.name;
        continue;
      }
      auto key_col = ts.ColumnIndex(attr.name);
      auto fk_col = ts.ColumnIndex(lg.attr(path->back()).name);
      if (!key_col.ok() || !fk_col.ok()) {
        ADD_FAILURE() << where << ": " << t.name << " lacks " << attr.name << " or its FK";
        continue;
      }
      size_t differ = 0;
      for (const Row& row : TableRows(db, t.name)) {
        if (row[*key_col].is_null()) continue;
        ++seen;
        if (!row[*key_col].SqlEquals(row[*fk_col])) ++differ;
      }
      EXPECT_EQ(differ, 0u) << where << ": " << t.name << "." << attr.name
                            << " differs from its FK " << lg.attr(path->back()).name;
    }
  }
  return seen;
}

/// Rid of the row of fragment `table` whose anchor key (column 0) is `key`.
std::optional<Rid> RidOfKey(Database* db, const std::string& table, int64_t key) {
  auto info = db->GetTable(table);
  if (!info.ok()) return std::nullopt;
  auto it = (*info)->heap->Begin();
  EXPECT_TRUE(it.ok()) << it.status().ToString();
  if (!it.ok()) return std::nullopt;
  while (!it->AtEnd()) {
    if (it->row()[0].SqlEquals(Value::Int(key))) return it->rid();
    if (!it->Next().ok()) break;
  }
  return std::nullopt;
}

/// Deletes from `data` every row of a parent that `layout` stores only inside
/// its children's rows (a combine) and that no child references: `layout`
/// cannot hold such a row, so no physical state can match a mirror that
/// keeps it. The TPC-W generator covers authors and orders, not countries.
void TrimUncoveredParents(LogicalDatabase* data, const PhysicalSchema& layout) {
  const LogicalSchema& lg = data->logical();
  for (EntityId e = 0; e < lg.num_entities(); ++e) {
    bool anchored = false;
    for (const PhysicalTable& t : layout.tables()) anchored = anchored || t.anchor == e;
    if (anchored) continue;
    std::set<int64_t> referenced;
    for (AttrId a = 0; a < lg.num_attributes(); ++a) {
      if (lg.attr(a).references != e) continue;
      const EntityId child = lg.attr(a).entity;
      for (const Row& row : data->Rows(child)) {
        auto v = data->AttrOfRow(child, row, a);
        if (v.ok() && !v->is_null()) referenced.insert(v->AsInt());
      }
    }
    std::vector<int64_t> uncovered;
    for (const Row& row : data->Rows(e)) {
      auto key = data->AttrOfRow(e, row, lg.entity(e).key);
      if (key.ok() && referenced.count(key->AsInt()) == 0) uncovered.push_back(key->AsInt());
    }
    for (int64_t key : uncovered) EXPECT_TRUE(data->DeleteRow(e, key).ok());
  }
}

TEST_P(RewriteDmlOracle, TpcwTrajectoryAtTenantScaleMatchesMirror) {
  // The same oracle where fragments span many pages: TPC-W tenants at the
  // benchmark's scale, in a pool far smaller than the data, on the layout
  // of every step of the fleet trajectory. FKs crowd onto a few hot parents
  // so that FK probes return many rids, long varchars relocate updated rows,
  // and deleted keys come back.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  const LogicalSchema& lg = tpcw->logical;
  const TpcwScale scale{"300 items / 500 customers", 300, 500};
  auto queries = BuildTpcwWorkload(*tpcw);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const std::vector<std::vector<double>> phase_freqs = Fig9IrregularFrequencies();
  const LogicalStats stats = GenerateTpcwData(*tpcw, scale, 1)->ComputeStats();
  FleetScheduleInputs inputs;
  inputs.queries = &*queries;
  inputs.phase_freqs = &phase_freqs;
  inputs.stats = &stats;
  auto trajectory = PlanFleetSchedule(tpcw->source, tpcw->object, inputs);
  ASSERT_TRUE(trajectory.ok()) << trajectory.status().ToString();

  std::vector<VersionTable> tables = VersionTablesOf(tpcw->source);
  for (VersionTable& t : VersionTablesOf(tpcw->object)) tables.push_back(std::move(t));
  constexpr int64_t kNewKeys = 8;  // inserts use [generated, generated + kNewKeys)

  uint64_t relocated = 0;
  size_t embedded_keys = 0;
  for (size_t step = 0; step <= trajectory->steps(); ++step) {
    const PhysicalSchema& schema = trajectory->at(step);
    SCOPED_TRACE("trajectory step " + std::to_string(step));
    Rng rng(GetParam() * 131 + step);
    auto mirror = GenerateTpcwData(*tpcw, scale, GetParam() + step);
    std::vector<int64_t> generated(lg.num_entities());
    for (EntityId e = 0; e < lg.num_entities(); ++e) {
      generated[e] = static_cast<int64_t>(mirror->NumRows(e));
    }
    TrimUncoveredParents(mirror.get(), schema);
    Database db(64);
    ASSERT_TRUE(mirror->Materialize(&db, schema).ok());
    DmlRouter router(&db);

    auto random_value = [&](AttrId a) -> Value {
      const LogicalAttribute& attr = lg.attr(a);
      if (attr.references.has_value()) {
        const int64_t parents = generated[*attr.references];
        const double roll = rng.UniformDouble();
        if (roll < 0.05) return Value::Null(TypeId::kInt64);
        if (roll < 0.15) return Value::Int(parents + rng.UniformInt(0, kNewKeys - 1));
        if (roll < 0.5) return Value::Int(rng.UniformInt(0, 2));  // hot parents
        return Value::Int(rng.UniformInt(0, parents - 1));
      }
      switch (attr.type) {
        case TypeId::kInt64:
          return Value::Int(rng.UniformInt(0, 9999));
        case TypeId::kDouble:
          return Value::Double(static_cast<double>(rng.UniformInt(0, 9999)) / 4.0);
        case TypeId::kVarchar:
          // 300 characters outgrow any generated value: an update setting
          // them no longer fits in place.
          return Value::Varchar(rng.AlphaString(rng.Bernoulli(0.3) ? 300 : 4));
        case TypeId::kBoolean:
          return Value::Bool(rng.Bernoulli(0.5));
      }
      return Value::Null(attr.type);
    };

    std::vector<std::pair<EntityId, int64_t>> deleted;
    for (int iter = 0; iter < 150; ++iter) {
      const VersionTable* vt = &tables[rng.Index(tables.size())];
      LogicalDml dml;
      const double roll = rng.UniformDouble();
      dml.kind = roll < 0.4    ? DmlKind::kInsert
                 : roll < 0.75 ? DmlKind::kUpdate
                               : DmlKind::kDelete;
      if (dml.kind == DmlKind::kInsert && !deleted.empty() && rng.Bernoulli(0.4)) {
        // Re-insert a deleted key, through any version table of its entity.
        const size_t i = rng.Index(deleted.size());
        const auto [entity, key] = deleted[i];
        deleted.erase(deleted.begin() + static_cast<std::ptrdiff_t>(i));
        std::vector<const VersionTable*> of_entity;
        for (const VersionTable& t : tables) {
          if (t.anchor == entity) of_entity.push_back(&t);
        }
        vt = of_entity[rng.Index(of_entity.size())];
        dml.key = key;
      } else if (dml.kind == DmlKind::kInsert || rng.Bernoulli(0.1)) {
        dml.key = generated[vt->anchor] + rng.UniformInt(0, kNewKeys - 1);
      } else {
        dml.key = rng.UniformInt(0, generated[vt->anchor] - 1);
      }
      dml.table = *vt;
      if (dml.kind != DmlKind::kDelete) {
        for (AttrId a : vt->attrs) {
          if (!rng.Bernoulli(dml.kind == DmlKind::kInsert ? 0.7 : 0.4)) continue;
          dml.set_attrs.push_back(a);
          dml.set_values.push_back(random_value(a));
        }
      }

      // A long varchar assigned to a row of a fragment anchored at the
      // statement's entity: note where the row lives to count relocations.
      std::string grown_table;
      std::optional<Rid> rid_before;
      if (dml.kind == DmlKind::kUpdate) {
        for (size_t i = 0; i < dml.set_attrs.size() && grown_table.empty(); ++i) {
          if (dml.set_values[i].type() != TypeId::kVarchar ||
              dml.set_values[i].AsString().size() < 300) {
            continue;
          }
          auto placed = schema.TableOfNonKeyAttr(dml.set_attrs[i]);
          if (!placed.ok() || schema.tables()[*placed].anchor != vt->anchor) continue;
          grown_table = schema.tables()[*placed].name;
          rid_before = RidOfKey(&db, grown_table, dml.key);
        }
      }

      Status s = router.Execute(dml, schema);
      if (s.IsBindError()) continue;  // unservable on this layout; the mirror skips it too
      ASSERT_TRUE(s.ok()) << dml.ToString() << ": " << s.ToString();
      MirrorApply(mirror.get(), dml);
      if (dml.kind == DmlKind::kDelete) deleted.emplace_back(vt->anchor, dml.key);
      if (rid_before.has_value()) {
        std::optional<Rid> rid_after = RidOfKey(&db, grown_table, dml.key);
        if (rid_after.has_value() && !(*rid_after == *rid_before)) ++relocated;
      }
    }
    // One checkpoint per layout: comparing against the mirror costs as much
    // as materializing it, far more than the statements themselves.
    ExpectStateMatchesMirror(&db, *mirror, schema, "after the workload");
    embedded_keys += ExpectEmbeddedKeysFollowTheirFks(&db, schema, "after the workload");
  }
  EXPECT_GT(relocated, 0u) << "no update relocated a row";
  EXPECT_GT(embedded_keys, 0u) << "no layout embedded a parent key";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteDmlOracle, ::testing::Values(1, 7, 21, 63));

// ---------------------------------------------------------------------------
// SqlDmlBridge: SQL through the session hook
// ---------------------------------------------------------------------------

class SqlBridgeTest : public RewriteDmlTest {
 protected:
  void SetUp() override {
    RewriteDmlTest::SetUp();
    data_ = bs_->MakeData(3, 2, 4);
    db_ = std::make_unique<Database>(1024);
    ASSERT_TRUE(data_->Materialize(db_.get(), bs_->object).ok());
    router_ = std::make_unique<DmlRouter>(db_.get());
    snapshot_ = std::make_shared<PhysicalSchema>(bs_->object);
    bridge_ = std::make_unique<SqlDmlBridge>(
        router_.get(), old_tables_, [this]() { return snapshot_; });
    session_ = std::make_unique<Session>(db_.get());
    session_->set_dml_hook(bridge_.get());
  }

  std::unique_ptr<LogicalDatabase> data_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<DmlRouter> router_;
  std::shared_ptr<const PhysicalSchema> snapshot_;
  std::unique_ptr<SqlDmlBridge> bridge_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlBridgeTest, OldVersionSqlWritesLandOnTheNewLayout) {
  // The old app INSERTs into "book" — a table that no longer physically
  // exists on the object schema. The bridge fans it out onto glossary.
  auto ins = session_->Execute(
      "INSERT INTO book (b_id, b_title, b_cost, b_a_id) VALUES (77, 'bridged', 3.5, 1)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->affected, 1u);
  auto check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsString(), "bridged");

  auto upd = session_->Execute("UPDATE book SET b_title = 'renamed' WHERE b_id = 77");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].AsString(), "renamed");

  auto del = session_->Execute("DELETE FROM book WHERE b_id = 77");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  check = session_->Execute("SELECT b_title FROM glossary WHERE b_id = 77");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows.size(), 0u);
}

TEST_F(SqlBridgeTest, UnknownTablesFallThroughToThePhysicalPath) {
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE scratch (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))")
          .ok());
  auto ins = session_->Execute("INSERT INTO scratch VALUES (1, 2)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto rows = session_->Execute("SELECT k, v FROM scratch");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(router_->stats().statements, 0u) << "the router must not see scratch-table DML";
}

TEST_F(SqlBridgeTest, NonKeyedWritesAreRejectedNotMisrouted) {
  // Version-table DML is entity-level: a predicate that is not
  // `key = literal` has no physical fallback and must be rejected.
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_title = 'x' WHERE b_cost > 2").ok());
  EXPECT_FALSE(session_->Execute("DELETE FROM book WHERE b_title = 'bridged'").ok());
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_title = 'x'").ok());
  // Updating the key is an entity identity change — rejected.
  EXPECT_FALSE(session_->Execute("UPDATE book SET b_id = 9 WHERE b_id = 1").ok());
  // Either operand order of the keyed predicate is accepted.
  EXPECT_TRUE(session_->Execute("UPDATE book SET b_title = 'y' WHERE 1 = b_id").ok());
}

// ---------------------------------------------------------------------------
// Row location: keyed statements probe B+ trees instead of scanning heaps
// ---------------------------------------------------------------------------

/// Buffer-pool page fetches (hits + misses) so far.
uint64_t PageFetches(const Database& db) {
  const BufferPoolStats& s = db.pool()->stats();
  return s.hits.load() + s.misses.load();
}

/// Height of the tallest B+ tree of each table of `schema`.
std::map<std::string, uint32_t> IndexHeights(Database* db, const PhysicalSchema& schema) {
  std::map<std::string, uint32_t> out;
  for (const PhysicalTable& t : schema.tables()) {
    auto info = db->GetTable(t.name);
    EXPECT_TRUE(info.ok()) << t.name;
    if (!info.ok()) continue;
    uint32_t& h = out[t.name];
    for (const auto& idx : (*info)->indexes) h = std::max(h, idx->tree->height());
  }
  return out;
}

TEST(DmlRowLocation, PageFetchesPerKeyedStatementDoNotGrowWithTheTable) {
  // TPC-W tenants at the benchmark's scale and at 4x. On both eras' layouts,
  // an UPDATE, a DELETE and an INSERT of a new key on a customer, an order
  // and an item must fetch no more pages at 4x than at 1x, except that every
  // B+ tree descent may cross one more level where a tree grew one. A
  // descent fetches at least one page at 1x, so that allowance is at most
  // the 1x fetch count. A statement that scans a heap fetches ~4x the pages.
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  const LogicalSchema& lg = tpcw->logical;
  const TpcwScale scales[2] = {{"300 items / 500 customers", 300, 500},
                               {"1200 items / 2000 customers", 1200, 2000}};
  const EntityId entities[3] = {tpcw->customer, tpcw->orders, tpcw->item};
  const DmlKind kinds[3] = {DmlKind::kUpdate, DmlKind::kDelete, DmlKind::kInsert};
  const std::vector<VersionTable> tables = VersionTablesOf(tpcw->source);

  auto value_for = [&](AttrId a) -> Value {
    const LogicalAttribute& attr = lg.attr(a);
    if (attr.references.has_value()) return Value::Int(3);  // a parent at both scales
    switch (attr.type) {
      case TypeId::kInt64:
        return Value::Int(5);
      case TypeId::kDouble:
        return Value::Double(1.5);
      case TypeId::kVarchar:
        return Value::Varchar("u");
      case TypeId::kBoolean:
        return Value::Bool(true);
    }
    return Value::Null(attr.type);
  };

  for (const PhysicalSchema* schema : {&tpcw->source, &tpcw->object}) {
    SCOPED_TRACE(schema == &tpcw->source ? "source schema" : "object schema");
    uint64_t fetches[2][3][3] = {};
    std::map<std::string, uint32_t> heights[2];
    for (size_t s = 0; s < 2; ++s) {
      auto data = GenerateTpcwData(*tpcw, scales[s], 7);
      Database db(4096);
      ASSERT_TRUE(data->Materialize(&db, *schema).ok());
      heights[s] = IndexHeights(&db, *schema);
      DmlRouter router(&db);
      for (size_t e = 0; e < 3; ++e) {
        const VersionTable* vt = nullptr;
        for (const VersionTable& t : tables) {
          if (t.anchor == entities[e]) vt = &t;
        }
        ASSERT_NE(vt, nullptr);
        for (size_t k = 0; k < 3; ++k) {
          LogicalDml dml;
          dml.kind = kinds[k];
          dml.table = *vt;
          const int64_t new_key = static_cast<int64_t>(data->NumRows(vt->anchor));
          dml.key = kinds[k] == DmlKind::kUpdate   ? 7
                    : kinds[k] == DmlKind::kDelete ? 11
                                                   : new_key;
          if (dml.kind != DmlKind::kDelete) {
            for (AttrId a : vt->attrs) {
              dml.set_attrs.push_back(a);
              dml.set_values.push_back(value_for(a));
            }
          }
          const uint64_t before = PageFetches(db);
          Status st = router.Execute(dml, *schema);
          ASSERT_TRUE(st.ok()) << dml.ToString() << ": " << st.ToString();
          fetches[s][e][k] = PageFetches(db) - before;
        }
      }
    }
    // The allowance's premise: no tree grew by more than one level.
    bool grew = false;
    for (const auto& [table, h] : heights[1]) {
      EXPECT_LE(h, heights[0][table] + 1) << table;
      grew = grew || h > heights[0][table];
    }
    for (size_t e = 0; e < 3; ++e) {
      for (size_t k = 0; k < 3; ++k) {
        const uint64_t allowed = fetches[0][e][k] * (grew ? 2 : 1);
        EXPECT_LE(fetches[1][e][k], allowed)
            << DmlKindName(kinds[k]) << " " << lg.entity(entities[e]).name << ": "
            << fetches[0][e][k] << " page fetches at 1x, " << fetches[1][e][k] << " at 4x";
      }
    }
  }
}

}  // namespace
}  // namespace pse

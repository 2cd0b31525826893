#include "core/virtual_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/mapping.h"
#include "engine/cost_model.h"
#include "storage/storage_defs.h"
#include "tests/core/core_test_util.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using coretest::Bookstore;

class VirtualCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    stats_.Resize(bs_->logical);
    stats_.entity_rows[bs_->author] = 100;
    stats_.entity_rows[bs_->book] = 5000;
    stats_.entity_rows[bs_->user] = 2000;
    stats_.attrs[bs_->a_id] = LogicalAttrStats{100, 0, 99, 0.0};
    stats_.attrs[bs_->b_id] = LogicalAttrStats{5000, 0, 4999, 0.0};
    stats_.attrs[bs_->b_a_id] = LogicalAttrStats{100, 0, 99, 0.0};
    stats_.attrs[bs_->b_cost] = LogicalAttrStats{40, {}, {}, 0.1};
  }

  std::unique_ptr<Bookstore> bs_;
  LogicalStats stats_;
};

TEST_F(VirtualCatalogTest, TableRowsFollowAnchorCardinality) {
  VirtualSchemaCatalog catalog(&bs_->object, &stats_);
  auto glossary = catalog.GetStats("glossary");
  ASSERT_TRUE(glossary.ok());
  EXPECT_EQ((*glossary)->row_count, 5000u);  // anchored at book
  auto user_gen = catalog.GetStats("user_gen");
  ASSERT_TRUE(user_gen.ok());
  EXPECT_EQ((*user_gen)->row_count, 2000u);
}

TEST_F(VirtualCatalogTest, PagesScaleWithWidth) {
  VirtualSchemaCatalog src(&bs_->source, &stats_);
  VirtualSchemaCatalog obj(&bs_->object, &stats_);
  // The glossary (book + author attrs + abstract) is wider than book alone.
  double book_pages = CostModel::TablePages(**src.GetStats("book"));
  double glossary_pages = CostModel::TablePages(**obj.GetStats("glossary"));
  EXPECT_GT(glossary_pages, book_pages);
}

TEST_F(VirtualCatalogTest, EmbeddedAttrStatsScaled) {
  VirtualSchemaCatalog catalog(&bs_->object, &stats_);
  auto glossary = catalog.GetStats("glossary");
  ASSERT_TRUE(glossary.ok());
  // a_id keeps its NDV (100) even though the table has 5000 rows.
  const ColumnStatistics* a_id = (*glossary)->Column("a_id");
  ASSERT_NE(a_id, nullptr);
  EXPECT_EQ(a_id->num_distinct, 100u);
  // NDV can never exceed the table's rows.
  VirtualSchemaCatalog src(&bs_->source, &stats_);
  auto author = src.GetStats("author");
  const ColumnStatistics* a_id_src = (*author)->Column("a_id");
  EXPECT_EQ(a_id_src->num_distinct, 100u);
}

TEST_F(VirtualCatalogTest, NullCountScalesToAnchorRows) {
  VirtualSchemaCatalog catalog(&bs_->source, &stats_);
  auto book = catalog.GetStats("book");
  const ColumnStatistics* cost = (*book)->Column("b_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->null_count, 500u);  // 10% of 5000
}

TEST_F(VirtualCatalogTest, MinMaxPropagated) {
  VirtualSchemaCatalog catalog(&bs_->source, &stats_);
  auto book = catalog.GetStats("book");
  const ColumnStatistics* id = (*book)->Column("b_id");
  ASSERT_NE(id, nullptr);
  ASSERT_TRUE(id->min.has_value());
  EXPECT_EQ(id->min->AsInt(), 0);
  EXPECT_EQ(id->max->AsInt(), 4999);
}

TEST_F(VirtualCatalogTest, KeyAndFkIndexesReported) {
  VirtualSchemaCatalog catalog(&bs_->source, &stats_);
  EXPECT_TRUE(catalog.HasIndex("book", "b_id"));     // anchor key
  EXPECT_TRUE(catalog.HasIndex("book", "b_a_id"));   // FK
  EXPECT_FALSE(catalog.HasIndex("book", "b_title"));
  EXPECT_FALSE(catalog.HasIndex("book", "a_name"));  // not in this table
  EXPECT_FALSE(catalog.HasIndex("missing", "b_id"));
}

TEST_F(VirtualCatalogTest, UnknownTableIsNotFound) {
  VirtualSchemaCatalog catalog(&bs_->source, &stats_);
  EXPECT_TRUE(catalog.GetSchema("nope").status().IsNotFound());
  EXPECT_TRUE(catalog.GetStats("nope").status().IsNotFound());
}

TEST_F(VirtualCatalogTest, SchemaShapeMatchesPhysical) {
  VirtualSchemaCatalog catalog(&bs_->object, &stats_);
  auto ts = catalog.GetSchema("glossary");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ((*ts)->key_columns()[0], "b_id");
  EXPECT_TRUE((*ts)->HasColumn("b_abstract"));
  EXPECT_TRUE((*ts)->HasColumn("a_bio"));
}

/// The catalog's metadata as its constructor once built it, every table up
/// front: the oracle of the build on first lookup. Schema and statistics of
/// a lowercased name come from its first table, the key column from its
/// last.
struct EagerCatalog {
  std::map<std::string, TableSchema> schemas;
  std::map<std::string, TableStatistics> stats;
  std::map<std::string, std::string> key_column;

  EagerCatalog(const PhysicalSchema& schema, const LogicalStats& logical_stats) {
    const LogicalSchema& L = *schema.logical();
    for (size_t i = 0; i < schema.tables().size(); ++i) {
      const PhysicalTable& t = schema.tables()[i];
      TableSchema ts = schema.ToTableSchema(i);
      std::string key = ToLower(t.name);
      key_column[key] = ts.key_columns().empty() ? "" : ts.key_columns()[0];

      TableStatistics st;
      uint64_t rows =
          t.anchor < logical_stats.entity_rows.size() ? logical_stats.entity_rows[t.anchor] : 0;
      st.row_count = rows;
      double width = static_cast<double>(ts.EstimatedTupleWidth());
      st.avg_tuple_width = width;
      st.page_count = static_cast<uint64_t>(
          std::max(1.0, std::ceil(static_cast<double>(rows) * width /
                                  (static_cast<double>(kPageSize) * 0.85))));
      for (AttrId a : t.attrs) {
        const LogicalAttribute& attr = L.attr(a);
        ColumnStatistics cs;
        if (a < logical_stats.attrs.size()) {
          const LogicalAttrStats& as = logical_stats.attrs[a];
          cs.num_distinct = std::min<uint64_t>(as.num_distinct, rows);
          cs.null_count = static_cast<uint64_t>(as.null_fraction * static_cast<double>(rows));
          if (as.min.has_value()) cs.min = Value::Int(*as.min);
          if (as.max.has_value()) cs.max = Value::Int(*as.max);
        }
        st.columns[attr.name] = cs;
      }
      schemas.emplace(key, std::move(ts));
      stats.emplace(key, std::move(st));
    }
  }

  bool HasIndex(const PhysicalSchema& schema, const std::string& table,
                const std::string& column) const {
    auto it = key_column.find(ToLower(table));
    if (it == key_column.end()) return false;
    if (EqualsIgnoreCase(it->second, column)) return true;
    auto attr = schema.logical()->AttrByName(column);
    if (!attr.ok()) return false;
    auto ti = schema.TableByName(table);
    if (!ti.ok() || !schema.tables()[*ti].Contains(*attr)) return false;
    return schema.logical()->attr(*attr).references.has_value();
  }
};

void ExpectSameSchema(const TableSchema& got, const TableSchema& want) {
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.key_columns(), want.key_columns());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    EXPECT_EQ(got.column(c).name, want.column(c).name);
    EXPECT_EQ(got.column(c).type, want.column(c).type);
    EXPECT_EQ(got.column(c).avg_width, want.column(c).avg_width);
    EXPECT_EQ(got.column(c).nullable, want.column(c).nullable);
  }
}

void ExpectSameStats(const TableStatistics& got, const TableStatistics& want) {
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.page_count, want.page_count);
  EXPECT_EQ(got.avg_tuple_width, want.avg_tuple_width);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (const auto& [name, w] : want.columns) {
    SCOPED_TRACE(name);
    const ColumnStatistics* g = got.Column(name);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->num_distinct, w.num_distinct);
    EXPECT_EQ(g->null_count, w.null_count);
    EXPECT_EQ(g->min, w.min);
    EXPECT_EQ(g->max, w.max);
  }
}

/// Every table of `schema`, looked up through a fresh catalog, equals the
/// eager build: schema, statistics, and HasIndex on every logical attribute.
void ExpectMatchesEagerBuild(const PhysicalSchema& schema, const LogicalStats& stats) {
  const EagerCatalog oracle(schema, stats);
  VirtualSchemaCatalog catalog(&schema, &stats);
  for (const PhysicalTable& t : schema.tables()) {
    SCOPED_TRACE(t.name);
    const std::string key = ToLower(t.name);
    auto ts = catalog.GetSchema(t.name);
    ASSERT_TRUE(ts.ok()) << ts.status().ToString();
    ExpectSameSchema(**ts, oracle.schemas.at(key));
    auto st = catalog.GetStats(t.name);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ExpectSameStats(**st, oracle.stats.at(key));
    for (AttrId a = 0; a < schema.logical()->num_attributes(); ++a) {
      const std::string& column = schema.logical()->attr(a).name;
      EXPECT_EQ(catalog.HasIndex(t.name, column), oracle.HasIndex(schema, t.name, column))
          << column;
    }
  }
}

TEST_F(VirtualCatalogTest, LazyEntriesEqualTheEagerBuild) {
  ExpectMatchesEagerBuild(bs_->source, stats_);
  ExpectMatchesEagerBuild(bs_->object, stats_);

  // TPC-W's source and object schemas and every schema a brute-force LAA
  // sweep from the source enumerates: the dependency-closed operator sets,
  // each applied in topological order.
  auto tpcw = BuildTpcwSchema();
  const LogicalStats tpcw_stats = GenerateTpcwData(*tpcw, ScaleTiny(), 42)->ComputeStats();
  ExpectMatchesEagerBuild(tpcw->source, tpcw_stats);
  ExpectMatchesEagerBuild(tpcw->object, tpcw_stats);
  auto opset = ComputeOperatorSet(tpcw->source, tpcw->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  auto topo = opset->TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  const std::vector<bool> none_applied(opset->size(), false);
  size_t swept = 0;
  for (uint64_t mask = 0; mask < (1ull << opset->size()); ++mask) {
    std::vector<int> subset;
    for (size_t b = 0; b < opset->size(); ++b) {
      if (mask & (1ull << b)) subset.push_back(static_cast<int>(b));
    }
    if (!opset->IsClosed(subset, none_applied)) continue;
    PhysicalSchema schema = tpcw->source;
    for (int i : *topo) {
      if (mask & (1ull << i)) {
        ASSERT_TRUE(ApplyOperator(opset->ops[static_cast<size_t>(i)], &schema).ok());
      }
    }
    SCOPED_TRACE("operator mask " + std::to_string(mask));
    ExpectMatchesEagerBuild(schema, tpcw_stats);
    ++swept;
  }
  EXPECT_GT(swept, 2u);
}

TEST_F(VirtualCatalogTest, LookupsResolveAnyCaseAndKeepEarlierEntries) {
  VirtualSchemaCatalog catalog(&bs_->object, &stats_);
  EXPECT_TRUE(catalog.GetSchema("nope").status().IsNotFound());
  EXPECT_TRUE(catalog.GetStats("nope").status().IsNotFound());
  auto first = catalog.GetSchema("GlOsSaRy");
  ASSERT_TRUE(first.ok());
  const TableSchema* glossary = *first;
  const TableStatistics* glossary_stats = *catalog.GetStats("GLOSSARY");
  EXPECT_EQ(glossary->name(), "glossary");
  // Building every other table's entry moves no earlier one.
  for (const PhysicalTable& t : bs_->object.tables()) {
    ASSERT_TRUE(catalog.GetSchema(t.name).ok());
    ASSERT_TRUE(catalog.GetStats(t.name).ok());
  }
  EXPECT_EQ(*catalog.GetSchema("glossary"), glossary);
  EXPECT_EQ(*catalog.GetStats("glossary"), glossary_stats);
  EXPECT_EQ(glossary->key_columns()[0], "b_id");
  EXPECT_EQ(glossary_stats->row_count, 5000u);
}

// PhysicalSchema::Validate rejects two tables whose names differ only in
// case, so no planned schema has them. A catalog over one anyway takes the
// schema, the statistics and the key column of the name from its first
// table; the eager build took the key column from the last.
TEST_F(VirtualCatalogTest, CaseDuplicateNamesResolveToTheFirstTable) {
  PhysicalSchema dup(&bs_->logical);
  for (PhysicalTable t : bs_->source.tables()) {
    if (t.name == "author") t.name = "BOOK";
    dup.AddRawTable(std::move(t));
  }
  auto first = dup.TableByName("book");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(dup.tables()[*first].name, "BOOK");  // author precedes book
  VirtualSchemaCatalog catalog(&dup, &stats_);
  auto schema = catalog.GetSchema("book");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->name(), "BOOK");
  EXPECT_EQ((*schema)->key_columns()[0], "a_id");
  EXPECT_EQ((*catalog.GetStats("Book"))->row_count, 100u);  // authors, not books
  EXPECT_TRUE(catalog.HasIndex("book", "a_id"));
  EXPECT_FALSE(catalog.HasIndex("book", "b_id"));
  // The eager build answered the other way round for the key columns.
  const EagerCatalog eager(dup, stats_);
  EXPECT_FALSE(eager.HasIndex(dup, "book", "a_id"));
  EXPECT_TRUE(eager.HasIndex(dup, "book", "b_id"));
}

}  // namespace
}  // namespace pse

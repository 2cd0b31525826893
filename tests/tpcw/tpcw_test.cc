// TPC-W schema / datagen / workload tests.
#include <gtest/gtest.h>

#include "core/mapping.h"
#include "core/rewriter.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace {

TEST(TpcwSchemaTest, BothSchemasValid) {
  auto schema = BuildTpcwSchema();
  EXPECT_TRUE(schema->source.Validate().ok());
  EXPECT_TRUE(schema->object.Validate().ok());
  EXPECT_EQ(schema->source.tables().size(), 8u);
  EXPECT_EQ(schema->object.tables().size(), 6u);
}

TEST(TpcwSchemaTest, OperatorSetShape) {
  auto schema = BuildTpcwSchema();
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  ASSERT_TRUE(opset.ok()) << opset.status().ToString();
  size_t creates = 0, splits = 0, combines = 0;
  for (const auto& op : opset->ops) {
    switch (op.kind) {
      case OperatorKind::kCreateTable:
        ++creates;
        break;
      case OperatorKind::kSplitTable:
        ++splits;
        break;
      case OperatorKind::kCombineTable:
        ++combines;
        break;
    }
  }
  // i_abstract + c_tier; customer split; item+author, item+abstract,
  // profile+tier, address+country, cc+orders.
  EXPECT_EQ(creates, 2u);
  EXPECT_EQ(splits, 1u);
  EXPECT_EQ(combines, 5u);
  // Fig 7's dependency DAG, 4 edges: Combine#3 (item + abstract) needs
  // Create#0 (i_abstract); Combine#4 (+ author) needs Combine#3; Combine#5
  // (profile + tier) needs Create#1 (c_tier) and Split#2 (the customer
  // split). The other operators are independent.
  const std::vector<std::vector<int>> want_deps = {{}, {}, {}, {0}, {3}, {1, 2}, {}, {}};
  EXPECT_EQ(opset->deps, want_deps);
  // Applying everything reaches the object schema (also asserted inside
  // ComputeOperatorSet, re-checked here).
  PhysicalSchema check = schema->source;
  auto order = opset->TopologicalOrder();
  ASSERT_TRUE(order.ok());
  for (int i : *order) {
    ASSERT_TRUE(ApplyOperator(opset->ops[static_cast<size_t>(i)], &check).ok());
  }
  EXPECT_TRUE(check.EquivalentTo(schema->object));
}

TEST(TpcwDatagenTest, CardinalitiesFollowScale) {
  auto schema = BuildTpcwSchema();
  TpcwScale scale = ScaleTiny();
  auto data = GenerateTpcwData(*schema, scale, 7);
  EXPECT_EQ(data->NumRows(schema->item), scale.num_items);
  EXPECT_EQ(data->NumRows(schema->customer), scale.num_customers);
  EXPECT_EQ(data->NumRows(schema->orders), scale.num_orders());
  EXPECT_EQ(data->NumRows(schema->order_line), scale.num_order_lines());
  EXPECT_EQ(data->NumRows(schema->cc_xacts), scale.num_orders());
  EXPECT_EQ(data->NumRows(schema->country), 92u);
}

TEST(TpcwDatagenTest, DeterministicForSeed) {
  auto schema = BuildTpcwSchema();
  auto d1 = GenerateTpcwData(*schema, ScaleTiny(), 7);
  auto d2 = GenerateTpcwData(*schema, ScaleTiny(), 7);
  const Row* r1 = d1->FindByKey(schema->item, 5);
  const Row* r2 = d2->FindByKey(schema->item, 5);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_TRUE(RowEq()(*r1, *r2));
}

TEST(TpcwDatagenTest, CoverageInvariants) {
  auto schema = BuildTpcwSchema();
  TpcwScale scale = ScaleTiny();
  auto data = GenerateTpcwData(*schema, scale, 7);
  // Every author has at least one item.
  std::vector<bool> author_has_item(scale.num_authors(), false);
  for (const Row& r : data->Rows(schema->item)) {
    auto v = data->AttrOfRow(schema->item, r, *schema->logical.AttrByName("i_a_id"));
    ASSERT_TRUE(v.ok());
    author_has_item[static_cast<size_t>(v->AsInt())] = true;
  }
  for (bool has : author_has_item) EXPECT_TRUE(has);
  // Exactly one cc_xact per order (keys align by construction).
  EXPECT_EQ(data->NumRows(schema->cc_xacts), data->NumRows(schema->orders));
}

TEST(TpcwDatagenTest, ScalePresets) {
  EXPECT_GT(Scale1GB().num_items, Scale100MB().num_items);
  EXPECT_EQ(Scale100MB().num_items / Scaled100MB().num_items, 20u);
  EXPECT_EQ(Scale1GB().num_items / Scaled1GB().num_items, 20u);
  EXPECT_EQ(ResolveScale("100mb").num_items, Scaled100MB().num_items);
  EXPECT_EQ(ResolveScale("1gb").num_items, Scaled1GB().num_items);
}

TEST(TpcwQueriesTest, AllTwentyQueriesLift) {
  auto schema = BuildTpcwSchema();
  auto workload = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->size(), 20u);
  for (size_t i = 0; i < 10; ++i) EXPECT_TRUE((*workload)[i].is_old);
  for (size_t i = 10; i < 20; ++i) EXPECT_FALSE((*workload)[i].is_old);
}

TEST(TpcwQueriesTest, EveryQueryRewritesOnBothEndpoints) {
  auto schema = BuildTpcwSchema();
  auto workload = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(workload.ok());
  for (const auto& wq : *workload) {
    // Every query must run on the object schema (it has everything).
    auto on_object = RewriteQuery(wq.query, schema->object);
    EXPECT_TRUE(on_object.ok()) << wq.query.name << ": " << on_object.status().ToString();
    // Old queries must run on the source schema; new queries touching new
    // attributes must NOT (BindError -> penalty pricing).
    auto on_source = RewriteQuery(wq.query, schema->source);
    if (wq.is_old) {
      EXPECT_TRUE(on_source.ok()) << wq.query.name << ": " << on_source.status().ToString();
    }
  }
}

TEST(TpcwQueriesTest, QueriesProduceRowsOnMaterializedData) {
  auto schema = BuildTpcwSchema();
  auto data = GenerateTpcwData(*schema, ScaleTiny(), 7);
  Database db(1024);
  ASSERT_TRUE(data->Materialize(&db, schema->object).ok());
  auto workload = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(workload.ok());
  DatabaseCatalogView view(&db);
  size_t nonempty = 0;
  for (const auto& wq : *workload) {
    auto bound = RewriteQuery(wq.query, schema->object);
    ASSERT_TRUE(bound.ok()) << wq.query.name;
    auto plan = PlanQuery(*bound, view);
    ASSERT_TRUE(plan.ok()) << wq.query.name << ": " << plan.status().ToString();
    auto rows = ExecutePlan(**plan, &db);
    ASSERT_TRUE(rows.ok()) << wq.query.name << ": " << rows.status().ToString();
    if (!rows->empty()) ++nonempty;
  }
  // Every query should find data at this scale.
  EXPECT_EQ(nonempty, workload->size());
}

TEST(TpcwWorkloadsTest, Fig9MatrixMatchesPaper) {
  auto freqs = Fig9IrregularFrequencies();
  ASSERT_EQ(freqs.size(), 5u);
  ASSERT_EQ(freqs[0].size(), 20u);
  // Spot checks against the printed table.
  EXPECT_EQ(freqs[0][0], 50);   // O1 @ P0-P1
  EXPECT_EQ(freqs[4][0], 10);   // O1 @ P4-P5
  EXPECT_EQ(freqs[3][8], 40);   // O9 @ P3-P4
  EXPECT_EQ(freqs[0][10], 10);  // N1 @ P0-P1
  EXPECT_EQ(freqs[4][10], 50);  // N1 @ P4-P5
  EXPECT_EQ(freqs[4][16], 70);  // N7 @ P4-P5
}

TEST(TpcwWorkloadsTest, OldDecreasesNewIncreases) {
  for (size_t points : {2u, 3u, 4u, 5u, 7u}) {
    auto freqs = IrregularFrequencies(points);
    ASSERT_EQ(freqs.size(), points);
    for (size_t q = 0; q < 10; ++q) {
      EXPECT_GE(freqs[0][q], freqs[points - 1][q]) << "O" << q + 1;
      EXPECT_LE(freqs[0][q + 10], freqs[points - 1][q + 10]) << "N" << q + 1;
    }
  }
}

TEST(TpcwWorkloadsTest, RegularIsLinear) {
  auto freqs = RegularFrequencies(5);
  // O1's stream drifts 50 -> 10; midpoint-sampled phases: 46, 38, 30, 22, 14.
  for (size_t p = 0; p < 5; ++p) EXPECT_NEAR(freqs[p][0], 46.0 - 8.0 * p, 1e-9);
  // Monotone for every query.
  for (size_t q = 0; q < 20; ++q) {
    for (size_t p = 1; p < 5; ++p) {
      if (q < 10) {
        EXPECT_LE(freqs[p][q], freqs[p - 1][q]);
      } else {
        EXPECT_GE(freqs[p][q], freqs[p - 1][q]);
      }
    }
  }
}

TEST(TpcwWorkloadsTest, VolumeConservedAcrossPointCounts) {
  // Every schedule redistributes the same total stream per query.
  auto five = Fig9IrregularFrequencies();
  std::vector<double> totals(20, 0);
  for (const auto& phase : five) {
    for (size_t q = 0; q < 20; ++q) totals[q] += phase[q];
  }
  for (size_t points : {2u, 3u, 4u, 5u, 6u}) {
    for (auto* make : {&RegularFrequencies}) {
      auto freqs = (*make)(points);
      for (size_t q = 0; q < 20; ++q) {
        double sum = 0;
        for (const auto& phase : freqs) sum += phase[q];
        EXPECT_NEAR(sum, totals[q], 1e-6) << "regular points=" << points << " q=" << q;
      }
    }
    auto irr = IrregularFrequencies(points);
    for (size_t q = 0; q < 20; ++q) {
      double sum = 0;
      for (const auto& phase : irr) sum += phase[q];
      EXPECT_NEAR(sum, totals[q], 1e-6) << "irregular points=" << points << " q=" << q;
    }
  }
}

TEST(TpcwWorkloadsTest, TableRendering) {
  std::string table = FrequenciesToTable(Fig9IrregularFrequencies());
  EXPECT_NE(table.find("O1"), std::string::npos);
  EXPECT_NE(table.find("N10"), std::string::npos);
  EXPECT_NE(table.find("P4-P5"), std::string::npos);
}

}  // namespace
}  // namespace pse

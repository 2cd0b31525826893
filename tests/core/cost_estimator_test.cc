// The cost-cache key of CachedCostEstimator: interned query, statistics and
// table-layout ids. A regression test for two workloads that share one cache
// and each name a different query "Q", and a property test that two keys are
// equal exactly when the string keys the estimator used before interning are
// equal — over random pairs of candidate schemas of the TPC-W and Bookstore
// migrations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/interaction.h"
#include "common/rng.h"
#include "core/cost_estimator.h"
#include "core/mapping.h"
#include "engine/cost_cache.h"
#include "tests/core/core_test_util.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using coretest::Bookstore;
using testutil::RandomCandidate;

/// The string key the estimator built per lookup before keys were interned:
/// for each support attribute the table storing it ("!<attr>;" when none
/// does), as the sorted set of those tables' anchor + attribute lists; the
/// whole schema for an empty support set. Kept as the oracle of key
/// exactness.
std::string LayoutKey(const std::set<AttrId>& support, const PhysicalSchema& schema) {
  std::string out;
  std::set<size_t> tables;
  if (support.empty()) {
    for (size_t t = 0; t < schema.tables().size(); ++t) tables.insert(t);
  } else {
    for (AttrId a : support) {
      auto ti = schema.TableOfNonKeyAttr(a);
      if (ti.ok()) {
        tables.insert(*ti);
      } else {
        out += '!';
        out += std::to_string(a);
        out += ';';
      }
    }
  }
  std::vector<std::string> parts;
  for (size_t t : tables) {
    const PhysicalTable& table = schema.tables()[t];
    std::string part = "T";
    part += std::to_string(table.anchor);
    part += ':';
    for (AttrId a : table.attrs) {
      part += std::to_string(a);
      part += ',';
    }
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) {
    out += part;
    out += ';';
  }
  return out;
}

TEST(CostEstimatorTest, TwoWorkloadsSharingACacheDoNotAliasTheirQueries) {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny(), 42);
  const LogicalStats stats = data->ComputeStats();
  auto lift = [&](const std::string& sql) {
    std::vector<WorkloadQuery> workload;
    auto q = LiftSqlToLogical(sql, schema->source, "Q");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (q.ok()) workload.emplace_back(std::move(*q), /*is_old=*/true);
    return workload;
  };
  // Same name, same index, both stored in `orders` alone: the old key
  // (index + name + tables) was the same string for both.
  const std::vector<WorkloadQuery> point =
      lift("SELECT o_id, o_total FROM orders WHERE o_c_id = 211");
  const std::vector<WorkloadQuery> scan = lift("SELECT o_id, o_total FROM orders WHERE o_total > 0");
  ASSERT_EQ(point.size(), 1u);
  ASSERT_EQ(scan.size(), 1u);
  auto point_cost = EstimateQueryCost(point[0].query, schema->source, stats);
  auto scan_cost = EstimateQueryCost(scan[0].query, schema->source, stats);
  ASSERT_TRUE(point_cost.ok() && scan_cost.ok());
  ASSERT_NE(*point_cost, *scan_cost) << "the two queries must cost differently to tell";

  QueryCostCache cache;
  CachedCostEstimator first(&point, &schema->logical, &cache);
  CachedCostEstimator second(&scan, &schema->logical, &cache);
  auto cached_point = first.QueryCost(0, schema->source, stats);
  auto cached_scan = second.QueryCost(0, schema->source, stats);
  ASSERT_TRUE(cached_point.ok() && cached_scan.ok());
  EXPECT_EQ(*cached_point, *point_cost);
  EXPECT_EQ(*cached_scan, *scan_cost);
  EXPECT_EQ(cache.Snapshot().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);

  // A third workload with the first one's query shares its entry.
  const std::vector<WorkloadQuery> point_again =
      lift("SELECT o_id, o_total FROM orders WHERE o_c_id = 211");
  CachedCostEstimator third(&point_again, &schema->logical, &cache);
  auto shared = third.QueryCost(0, schema->source, stats);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(*shared, *point_cost);
  EXPECT_EQ(cache.Snapshot().hits, 1u);
}

TEST(CostEstimatorTest, DifferentStatisticsNeverShareAnEntry) {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny(), 42);
  auto workload = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(workload.ok());
  const LogicalStats stats = data->ComputeStats();
  LogicalStats grown = stats;
  for (uint64_t& rows : grown.entity_rows) rows *= 4;
  const LogicalStats same_as_stats = stats;  // equal content, another address

  QueryCostCache cache;
  CachedCostEstimator estimator(&*workload, &schema->logical, &cache);
  ASSERT_TRUE(estimator.QueryCost(0, schema->source, stats).ok());
  ASSERT_TRUE(estimator.QueryCost(0, schema->source, grown).ok());
  EXPECT_EQ(cache.Snapshot().hits, 0u);
  auto again = estimator.QueryCost(0, schema->source, same_as_stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.Snapshot().hits, 1u);
  EXPECT_EQ(*again, *EstimateQueryCost((*workload)[0].query, schema->source, stats));
}

struct KeyTally {
  size_t equal = 0;
  size_t different = 0;
};

/// Draws `pairs` candidate pairs and checks, per query, that costing the
/// second schema after the first hits the cache exactly when the two string
/// keys agree — and that a hit returns the uncached cost.
void CheckKeysMatchLayoutKeys(const PhysicalSchema& source, const OperatorSet& opset,
                              const std::vector<WorkloadQuery>& queries,
                              const LogicalSchema& logical, const LogicalStats& stats, Rng* rng,
                              int pairs, KeyTally* tally) {
  std::vector<std::set<AttrId>> support;
  for (const WorkloadQuery& wq : queries) support.push_back(QuerySupportAttrs(wq.query, logical));
  for (int pair = 0; pair < pairs; ++pair) {
    std::vector<bool> subset(opset.size());
    for (size_t i = 0; i < opset.size(); ++i) subset[i] = rng->Bernoulli(0.5);
    const PhysicalSchema a = RandomCandidate(source, opset, rng, subset);
    // Half of the partners reuse the subset with at most one operator
    // flipped, so equal keys are common; the rest are independent draws.
    std::vector<bool> partner;
    if (rng->Bernoulli(0.5)) {
      partner = subset;
      if (!partner.empty() && rng->Bernoulli(0.5)) {
        const size_t flip = rng->Index(partner.size());
        partner[flip] = !partner[flip];
      }
    }
    const PhysicalSchema b = RandomCandidate(source, opset, rng, partner);

    QueryCostCache cache;
    CachedCostEstimator estimator(&queries, &logical, &cache);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto cost_a = estimator.QueryCost(q, a, stats);
      ASSERT_TRUE(cost_a.ok() || cost_a.status().IsBindError()) << cost_a.status().ToString();
      const uint64_t hits_before = cache.Snapshot().hits;
      auto cost_b = estimator.QueryCost(q, b, stats);
      const bool hit = cache.Snapshot().hits == hits_before + 1;
      const bool keys_equal = LayoutKey(support[q], a) == LayoutKey(support[q], b);
      EXPECT_EQ(hit, keys_equal) << "query " << queries[q].query.name << "\nA:\n"
                                 << a.ToString() << "\nB:\n"
                                 << b.ToString();
      ++(keys_equal ? tally->equal : tally->different);
      auto uncached_b = EstimateQueryCost(queries[q].query, b, stats);
      ASSERT_EQ(cost_b.ok(), uncached_b.ok()) << queries[q].query.name;
      if (cost_b.ok()) {
        EXPECT_EQ(*cost_b, *uncached_b) << queries[q].query.name;
      }
    }
  }
}

TEST(CostEstimatorTest, KeysAreEqualExactlyWhenLayoutKeysAreOnTpcw) {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny(), 42);
  auto workload = BuildTpcwWorkload(*schema);
  ASSERT_TRUE(workload.ok());
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  ASSERT_TRUE(opset.ok());
  const LogicalStats stats = data->ComputeStats();
  Rng rng(2009);
  KeyTally tally;
  CheckKeysMatchLayoutKeys(schema->source, *opset, *workload, schema->logical, stats, &rng,
                           /*pairs=*/24, &tally);
  EXPECT_GT(tally.equal, 0u);
  EXPECT_GT(tally.different, 0u);
}

TEST(CostEstimatorTest, KeysAreEqualExactlyWhenLayoutKeysAreOnBookstore) {
  auto bs = Bookstore::Make();
  Bookstore& s = *bs;
  auto data = s.MakeData(10, 20, 50);
  const LogicalStats stats = data->ComputeStats();
  auto opset = ComputeOperatorSet(s.source, s.object);
  ASSERT_TRUE(opset.ok());
  std::vector<WorkloadQuery> queries;
  const std::pair<const char*, bool> sqls[] = {
      {"SELECT b_title, a_name FROM book JOIN author ON b_a_id = a_id WHERE b_cost > 10", true},
      {"SELECT u_name, u_addr FROM user", true},
      {"SELECT a_bio FROM author", true},
      {"SELECT u_id FROM user", true},  // key only: an empty support set
      {"SELECT b_title, b_abstract FROM glossary", false},
  };
  for (const auto& [sql, is_old] : sqls) {
    std::string name = "q";
    name += std::to_string(queries.size());
    auto q = LiftSqlToLogical(sql, is_old ? s.source : s.object, name);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    queries.emplace_back(std::move(*q), is_old);
  }
  ASSERT_TRUE(QuerySupportAttrs(queries[3].query, s.logical).empty());
  Rng rng(77);
  KeyTally tally;
  CheckKeysMatchLayoutKeys(s.source, *opset, queries, s.logical, stats, &rng, /*pairs=*/60,
                           &tally);
  EXPECT_GT(tally.equal, 0u);
  EXPECT_GT(tally.different, 0u);
}

}  // namespace
}  // namespace pse

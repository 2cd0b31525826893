// FleetScheduler invariants: the global I/O token budget is never exceeded,
// the round-robin picks drain the whole fleet and cycle distinct shards, a
// fleet of 1024 tenants migrates end to end, a failed migration lane stops
// the serve lanes at once, and the SharedPlanCache amortizes rewrites to
// (N-1)/N hits across same-step tenants while returning rewrites identical
// to a direct RewriteQuery, also for same-named queries whose constants
// differ past the sixth digit.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "tests/common/test_db_builder.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::SameRows;
using testutil::SortRows;

std::vector<WorkloadQuery> MakeQueries(const Bookstore& bs) {
  std::vector<WorkloadQuery> queries;
  LogicalQuery book;
  book.name = "old-book-author";
  book.anchor = bs.book;
  book.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
  book.select.emplace_back(Col("a_name"), AggFunc::kNone, "a");
  queries.emplace_back(std::move(book), /*is_old=*/true);
  LogicalQuery user;
  user.name = "old-user";
  user.anchor = bs.user;
  user.select.emplace_back(Col("u_name"), AggFunc::kNone, "n");
  user.select.emplace_back(Col("u_addr"), AggFunc::kNone, "ad");
  queries.emplace_back(std::move(user), /*is_old=*/true);
  LogicalQuery abstract_q;
  abstract_q.name = "new-abstract";
  abstract_q.anchor = bs.book;
  abstract_q.select.emplace_back(Col("b_title"), AggFunc::kNone, "t");
  abstract_q.select.emplace_back(Col("b_abstract"), AggFunc::kNone, "ab");
  queries.emplace_back(std::move(abstract_q), /*is_old=*/false);
  return queries;
}

class FleetSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bs_ = Bookstore::Make();
    auto schedule = PlanFleetSchedule(bs_->source, bs_->object);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    schedule_ = std::make_unique<FleetSchedule>(std::move(*schedule));
    queries_ = MakeQueries(*bs_);
    freqs_ = {10, 10, 5};
  }

  /// Builds a scheduler over `n` fresh in-memory tenants (distinct sizes).
  std::unique_ptr<FleetScheduler> MakeFleet(size_t n) {
    auto scheduler = std::make_unique<FleetScheduler>(*schedule_, &cache_);
    for (size_t t = 0; t < n; ++t) {
      data_.push_back(bs_->MakeData(2, 2, 8 + static_cast<int>(t)));
      auto shard = TenantShard::Create(t, bs_->source, data_.back().get());
      if (!shard.ok()) {
        ADD_FAILURE() << shard.status().ToString();
        continue;
      }
      scheduler->AddShard(std::move(*shard));
    }
    return scheduler;
  }

  std::unique_ptr<Bookstore> bs_;
  std::unique_ptr<FleetSchedule> schedule_;
  SharedPlanCache cache_;
  std::vector<std::unique_ptr<LogicalDatabase>> data_;
  std::vector<WorkloadQuery> queries_;
  std::vector<double> freqs_;
};

TEST_F(FleetSchedulerTest, IoTokenBucketTracksOutstandingAndPeak) {
  IoTokenBucket bucket(3);
  EXPECT_EQ(bucket.capacity(), 3u);
  bucket.Acquire();
  bucket.Acquire();
  EXPECT_EQ(bucket.outstanding(), 2u);
  EXPECT_EQ(bucket.peak_outstanding(), 2u);
  bucket.Release();
  EXPECT_EQ(bucket.outstanding(), 1u);
  EXPECT_EQ(bucket.peak_outstanding(), 2u);  // high-water mark sticks
  bucket.Release();
  EXPECT_EQ(bucket.total_acquired(), 2u);
  // Capacity 0 would deadlock the first Acquire; it clamps to 1.
  IoTokenBucket degenerate(0);
  EXPECT_EQ(degenerate.capacity(), 1u);
}

TEST_F(FleetSchedulerTest, RunValidatesItsInputs) {
  FleetScheduler empty(*schedule_, &cache_);
  EXPECT_FALSE(empty.Run(queries_, freqs_, FleetOptions{}).ok());

  auto fleet = MakeFleet(2);
  std::vector<double> bad_freqs = {1.0};
  EXPECT_FALSE(fleet->Run(queries_, bad_freqs, FleetOptions{}).ok());

  // Serve lanes run until the migration lanes finish, so a run with none
  // is refused instead of serving forever.
  FleetOptions no_migration;
  no_migration.migration_lanes = 0;
  no_migration.serve_lanes = 1;
  EXPECT_TRUE(fleet->Run(queries_, freqs_, no_migration).status().IsInvalidArgument());
  for (size_t i = 0; i < fleet->size(); ++i) {
    EXPECT_EQ(fleet->shard(i)->step(), 0u) << "a refused run moved shard " << i;
  }
}

// More migration lanes than tokens: the bucket, not the lane count, bounds
// concurrent migration I/O. peak <= capacity is exact (tracked under the
// bucket mutex at every Acquire).
TEST_F(FleetSchedulerTest, IoBudgetNeverExceeded) {
  auto fleet = MakeFleet(6);
  FleetOptions options;
  options.migration_lanes = 4;
  options.serve_lanes = 1;
  options.io_tokens = 2;
  options.min_queries_per_lane = 8;
  options.migration.batch_rows = 8;
  auto metrics = fleet->Run(queries_, freqs_, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->io_capacity, 2u);
  EXPECT_GE(metrics->io_peak_outstanding, 1u);
  EXPECT_LE(metrics->io_peak_outstanding, 2u);
  EXPECT_EQ(metrics->tenants_migrated, 6u);
  EXPECT_EQ(metrics->errors, 0u);
  EXPECT_GT(metrics->batches, 0u);
}

TEST_F(FleetSchedulerTest, RoundRobinDrainsTheWholeFleet) {
  auto fleet = MakeFleet(5);
  FleetOptions options;
  options.migration_lanes = 2;
  options.serve_lanes = 2;
  options.io_tokens = 2;
  options.min_queries_per_lane = 8;
  options.migration.batch_rows = 16;
  auto metrics = fleet->Run(queries_, freqs_, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->tenants, 5u);
  EXPECT_EQ(metrics->tenants_migrated, 5u);
  EXPECT_EQ(metrics->ops_applied, 5u * schedule_->steps());
  EXPECT_EQ(metrics->errors, 0u);
  for (size_t i = 0; i < fleet->size(); ++i) {
    EXPECT_TRUE(fleet->shard(i)->done(*schedule_)) << "shard " << i;
    EXPECT_EQ(fleet->shard(i)->published_step(), schedule_->steps()) << "shard " << i;
  }
}

// The SaaS scale: 1024 migration-only tenants with 64-page pools, their
// data shared read-only from 8 instances, walk the whole trajectory on 4
// migration lanes against 2 I/O tokens, so the budget, not the lane count,
// bounds concurrent migration I/O. Then every tenant issues the workload at
// the final step against a fresh cache: the first lookup of each query
// misses and every other one hits.
TEST_F(FleetSchedulerTest, ThousandTenantRolloutHoldsTheBudgetAndSharesEveryPlan) {
  constexpr size_t kTenants = 1024;
  std::vector<std::unique_ptr<LogicalDatabase>> instances;
  for (int v = 0; v < 8; ++v) instances.push_back(bs_->MakeData(3, 2, 8 + 2 * v));
  FleetScheduler fleet(*schedule_, &cache_);
  for (size_t t = 0; t < kTenants; ++t) {
    ShardOptions shard_options;
    shard_options.pool_pages = 64;
    auto shard = TenantShard::Create(t, bs_->source, instances[t % instances.size()].get(),
                                     std::move(shard_options));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    fleet.AddShard(std::move(*shard));
  }
  FleetOptions options;
  options.migration_lanes = 4;
  options.serve_lanes = 0;
  options.io_tokens = 2;
  options.migration.batch_rows = 64;
  auto metrics = fleet.Run(queries_, freqs_, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->tenants_migrated, kTenants);
  EXPECT_EQ(metrics->ops_applied, kTenants * schedule_->steps());
  EXPECT_EQ(metrics->io_capacity, 2u);
  EXPECT_LE(metrics->io_peak_outstanding, metrics->io_capacity);
  for (size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_EQ(fleet.shard(i)->published_step(), schedule_->steps()) << "shard " << i;
  }

  SharedPlanCache same_step;
  const size_t last = schedule_->steps();
  for (size_t t = 0; t < kTenants; ++t) {
    for (const WorkloadQuery& wq : queries_) {
      Result<BoundQuery> bound = same_step.GetOrRewrite(last, wq.query, schedule_->at(last));
      ASSERT_TRUE(bound.ok()) << wq.query.name << ": " << bound.status().ToString();
    }
  }
  const PlanCacheStats stats = same_step.Snapshot();
  EXPECT_EQ(stats.misses, queries_.size());
  EXPECT_EQ(stats.hits, (kTenants - 1) * queries_.size());
}

// One migration lane makes the pick order deterministic; on_shard_op runs
// outside all fleet locks and reconstructs it.
TEST_F(FleetSchedulerTest, RoundRobinCyclesDistinctShards) {
  constexpr size_t kTenants = 4;
  auto fleet = MakeFleet(kTenants);
  std::mutex order_mu;
  std::vector<size_t> order;
  FleetOptions options;
  options.migration_lanes = 1;
  options.serve_lanes = 0;
  options.on_shard_op = [&](size_t shard, size_t) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(shard);
  };
  auto metrics = fleet->Run(queries_, freqs_, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(order.size(), kTenants * schedule_->steps());
  // Every window of kTenants consecutive picks touches every shard once.
  for (size_t w = 0; w + kTenants <= order.size(); w += kTenants) {
    std::set<size_t> window(order.begin() + static_cast<long>(w),
                            order.begin() + static_cast<long>(w + kTenants));
    EXPECT_EQ(window.size(), kTenants) << "window at " << w << " revisited a shard";
  }
}

// A failed migration lane stops the serve lanes at once. The third copy
// batch fails, long before two serve lanes could attempt their floors, so
// Run returns the failure after a small share of the lookups the floors
// would make. The faulted operator rolls back: every shard stays at the
// step its last applied operator reached, and no journal is left.
TEST_F(FleetSchedulerTest, FailedMigrationLaneStopsTheServeLanes) {
  constexpr uint64_t kFloor = 50000;
  auto fleet = MakeFleet(2);
  std::vector<size_t> applied(fleet->size(), 0);
  int batches = 0;
  FleetOptions options;
  options.migration_lanes = 1;
  options.serve_lanes = 2;
  options.min_queries_per_lane = kFloor;
  options.migration.batch_rows = 8;
  options.migration.on_batch = [&batches](const MigrationBatchEvent&) {
    return ++batches == 3 ? Status::Internal("injected") : Status::OK();
  };
  options.on_shard_op = [&applied](size_t shard, size_t) { ++applied[shard]; };
  const PlanCacheStats before = cache_.Snapshot();
  auto metrics = fleet->Run(queries_, freqs_, options);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal) << metrics.status().ToString();
  EXPECT_NE(metrics.status().message().find("injected"), std::string::npos)
      << metrics.status().ToString();
  EXPECT_EQ(batches, 3);
  const PlanCacheStats after = cache_.Snapshot();
  const uint64_t lookups = (after.hits - before.hits) + (after.misses - before.misses);
  EXPECT_LT(lookups, 2 * kFloor / 10) << "serve lanes ran on after the migration lane failed";
  for (size_t i = 0; i < fleet->size(); ++i) {
    TenantShard* shard = fleet->shard(i);
    EXPECT_EQ(shard->step(), applied[i]) << "shard " << i;
    EXPECT_EQ(shard->published_step(), applied[i]) << "shard " << i;
    EXPECT_FALSE(shard->db()->HasPendingMigration()) << "shard " << i << " kept a journal";
  }
}

// N tenants parked at one step issue the same workload: the first lookup
// per (step, query) misses, the other N-1 hit — including the unservable
// query, whose BindError is itself a property of the step and is cached.
TEST_F(FleetSchedulerTest, SharedPlanCacheAmortizesAcrossSameStepTenants) {
  constexpr size_t kTenants = 8;
  SharedPlanCache cache;
  const PhysicalSchema& source = schedule_->at(0);

  PlanCacheStats before = cache.Snapshot();
  uint64_t unservable = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    for (const WorkloadQuery& wq : queries_) {
      Result<BoundQuery> bound = cache.GetOrRewrite(0, wq.query, source);
      if (!bound.ok()) {
        ASSERT_TRUE(bound.status().IsBindError()) << bound.status().ToString();
        ++unservable;
      }
    }
  }
  PlanCacheStats delta = cache.Snapshot();
  delta.hits -= before.hits;
  delta.misses -= before.misses;
  EXPECT_EQ(delta.misses, queries_.size());
  EXPECT_EQ(delta.hits, (kTenants - 1) * queries_.size());
  double expected_pct = 100.0 * static_cast<double>(kTenants - 1) / kTenants;
  EXPECT_GE(delta.hit_pct(), expected_pct - 1e-9);
  // new-abstract is unservable on the source schema for every tenant.
  EXPECT_EQ(unservable, kTenants);
  EXPECT_EQ(cache.size(), queries_.size());

  // A different step is a different key: no false sharing across steps.
  for (const WorkloadQuery& wq : queries_) {
    auto bound = cache.GetOrRewrite(schedule_->steps(), wq.query, schedule_->object);
    EXPECT_TRUE(bound.ok()) << wq.query.name << " must be servable on the object schema";
  }
  EXPECT_EQ(cache.size(), 2 * queries_.size());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// The cached rewrite must be indistinguishable from a direct RewriteQuery:
// same rows when planned and executed against a real shard.
TEST_F(FleetSchedulerTest, CachedRewriteExecutesIdenticallyToDirectRewrite) {
  SharedPlanCache cache;
  auto data = bs_->MakeData(3, 3, 12);
  auto shard = TenantShard::Create(0, bs_->source, data.get());
  ASSERT_TRUE(shard.ok());
  MigrationOptions clean;
  while (!(*shard)->done(*schedule_)) {
    ASSERT_TRUE((*shard)->AdvanceOneOp(*schedule_, clean).ok());
  }
  const PhysicalSchema schema = (*shard)->CurrentSchema();
  Database* db = (*shard)->db();
  ASSERT_TRUE(db->AnalyzeAll().ok());

  for (const WorkloadQuery& wq : queries_) {
    SCOPED_TRACE(wq.query.name);
    // Warm the cache, then take the cloned hit path.
    ASSERT_TRUE(cache.GetOrRewrite(schedule_->steps(), wq.query, schema).ok());
    Result<BoundQuery> cached = cache.GetOrRewrite(schedule_->steps(), wq.query, schema);
    Result<BoundQuery> direct = RewriteQuery(wq.query, schema);
    ASSERT_TRUE(cached.ok() && direct.ok());

    DatabaseCatalogView view(db);
    auto run = [&](const BoundQuery& bound) {
      auto plan = PlanQuery(bound, view);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      auto rows = ExecutePlan(**plan, db);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      return SortRows(std::move(*rows));
    };
    std::vector<Row> from_cache = run(*cached);
    std::vector<Row> from_direct = run(*direct);
    EXPECT_TRUE(SameRows(from_cache, from_direct))
        << "cached rewrite diverges (" << from_cache.size() << " vs " << from_direct.size()
        << " rows)";
  }
}

// Two same-named queries whose DOUBLE constants agree to six significant
// digits are two entries: the second query returns its own rows, not those
// of the first query's rewrite, which carries the first constant. A query
// that differs only in an output name is a third.
TEST(SharedPlanCacheTest, ConstantsDifferingPastTheSixthDigitDoNotShareARewrite) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto data = GenerateTpcwData(*tpcw, ScaleTiny(), 42);
  // One order's total lies between the two constants.
  const EntityId orders = tpcw->orders;
  auto o_id = data->AttrOfRow(orders, data->Rows(orders)[0], tpcw->logical.entity(orders).key);
  auto o_total = tpcw->logical.AttrByName("o_total");
  ASSERT_TRUE(o_id.ok() && o_total.ok());
  ASSERT_TRUE(data->UpdateRow(orders, o_id->AsInt(), {*o_total}, {Value::Double(1000.2025)}).ok());
  auto shard = TenantShard::Create(0, tpcw->source, data.get());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  Database* db = (*shard)->db();

  auto low = LiftSqlToLogical("SELECT o_id, o_total FROM orders WHERE o_total > 1000.2",
                              tpcw->source, "Q");
  auto high = LiftSqlToLogical("SELECT o_id, o_total FROM orders WHERE o_total > 1000.2049",
                               tpcw->source, "Q");
  ASSERT_TRUE(low.ok() && high.ok());
  DatabaseCatalogView view(db);
  auto run = [&](const BoundQuery& bound) {
    auto plan = PlanQuery(bound, view);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto rows = ExecutePlan(**plan, db);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return SortRows(std::move(*rows));
  };
  Result<BoundQuery> direct_low = RewriteQuery(*low, tpcw->source);
  Result<BoundQuery> direct_high = RewriteQuery(*high, tpcw->source);
  ASSERT_TRUE(direct_low.ok() && direct_high.ok());
  const std::vector<Row> want_high = run(*direct_high);
  ASSERT_EQ(run(*direct_low).size(), want_high.size() + 1)
      << "exactly the order between the constants tells the queries apart";

  SharedPlanCache cache;
  ASSERT_TRUE(cache.GetOrRewrite(0, *low, tpcw->source).ok());
  Result<BoundQuery> cached_high = cache.GetOrRewrite(0, *high, tpcw->source);
  ASSERT_TRUE(cached_high.ok()) << cached_high.status().ToString();
  EXPECT_TRUE(SameRows(run(*cached_high), want_high));

  // Output names are part of the key too: the rewrite copies them.
  auto renamed = LiftSqlToLogical(
      "SELECT o_id, o_total AS total FROM orders WHERE o_total > 1000.2049", tpcw->source, "Q");
  ASSERT_TRUE(renamed.ok());
  Result<BoundQuery> cached_renamed = cache.GetOrRewrite(0, *renamed, tpcw->source);
  ASSERT_TRUE(cached_renamed.ok()) << cached_renamed.status().ToString();
  ASSERT_EQ(cached_renamed->select_items.size(), 2u);
  EXPECT_EQ(cached_renamed->select_items[1].name, (*renamed).select[1].name);
  EXPECT_NE(cached_renamed->select_items[1].name, cached_high->select_items[1].name);
  EXPECT_EQ(cache.Snapshot().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace pse

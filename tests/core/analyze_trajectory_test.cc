// ANALYZE on the TPC-W fleet trajectory: every table a tenant holds after
// TenantShard::Create and after each AdvanceOneOp, in a pool far smaller
// than the data. Two shards advance in lockstep; at each step one runs the
// decoding oracle (tests/storage/analyze_oracle.h) and the other
// Database::Analyze over every table. The statistics published inside
// Create and inside each operator's publish window, and those Analyze
// recomputes, must equal the oracle's field for field; the two scans must
// make the same disk reads and writes and pool misses, Analyze with one
// fetch per heap page, and the shards must stay in one state, so that each
// next operator costs both the same page I/O.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fleet/tenant_shard.h"
#include "tests/core/tpcw_trajectory.h"
#include "tests/storage/analyze_oracle.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using testutil::ExpectAnalyzeMatchesOracle;
using testutil::ExpectSameStatistics;
using testutil::IoCounters;

/// Checks every table of `schema`: the statistics `db` holds, and those
/// Analyze recomputes, against the oracle run on `oracle_db`.
void ExpectEveryTableMatchesOracle(Database* oracle_db, Database* db,
                                   const PhysicalSchema& schema) {
  for (const PhysicalTable& t : schema.tables()) {
    auto info = db->GetTable(t.name);
    ASSERT_TRUE(info.ok()) << t.name;
    ASSERT_TRUE((*info)->stats_valid) << t.name;
    const TableStatistics published = (*info)->stats;
    ASSERT_NO_FATAL_FAILURE(ExpectAnalyzeMatchesOracle(oracle_db, db, t.name));
    SCOPED_TRACE(t.name + " as published");
    ExpectSameStatistics(published, (*info)->stats);
  }
}

TEST(AnalyzeOracle, EveryTableOnTheTpcwTrajectoryMatchesTheDecodingScan) {
  std::unique_ptr<TpcwSchema> tpcw = BuildTpcwSchema();
  auto schedule = PlanTpcwTrajectory(*tpcw);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_GT(schedule->steps(), 0u);
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    auto data = GenerateTpcwData(*tpcw, TpcwScale{"300 items / 500 customers", 300, 500}, seed);
    std::unique_ptr<TenantShard> shards[2];
    for (auto& shard : shards) {
      ShardOptions options;
      options.pool_pages = 16;
      auto created = TenantShard::Create(0, schedule->at(0), data.get(), std::move(options));
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      shard = std::move(*created);
    }
    Database* oracle_db = shards[0]->db();
    Database* db = shards[1]->db();
    ASSERT_NO_FATAL_FAILURE(ExpectEveryTableMatchesOracle(oracle_db, db, schedule->at(0)));
    MigrationOptions options;
    options.batch_rows = 64;
    for (size_t step = 0; step < schedule->steps(); ++step) {
      SCOPED_TRACE("after step " + std::to_string(step));
      IoCounters io[2];
      for (size_t s = 0; s < 2; ++s) {
        const IoCounters before = IoCounters::Of(shards[s]->db());
        Status st = shards[s]->AdvanceOneOp(*schedule, options);
        ASSERT_TRUE(st.ok()) << st.ToString();
        io[s] = IoCounters::Of(shards[s]->db()) - before;
      }
      EXPECT_EQ(io[1].reads, io[0].reads);
      EXPECT_EQ(io[1].writes, io[0].writes);
      EXPECT_EQ(io[1].misses, io[0].misses);
      EXPECT_EQ(io[1].fetches, io[0].fetches);
      ASSERT_NO_FATAL_FAILURE(
          ExpectEveryTableMatchesOracle(oracle_db, db, schedule->at(step + 1)));
    }
    // The data outgrew the pool many times over.
    uint64_t pages = 0;
    for (const PhysicalTable& t : schedule->at(schedule->steps()).tables()) {
      pages += (*db->GetTable(t.name))->heap->NumPages();
    }
    EXPECT_GT(pages, 4u * 16u);
  }
}

}  // namespace
}  // namespace pse

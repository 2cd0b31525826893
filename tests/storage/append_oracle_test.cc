// The batch append path (Database::InsertBatch) against the row-at-a-time
// insert it replaced, page for page (append_oracle.h), on seeded random
// tables and when a disk fault stops the load part-way.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "storage/database.h"
#include "tests/storage/append_oracle.h"

namespace pse {
namespace {

using testutil::CheckShape;
using testutil::ExpectSameIo;
using testutil::ExpectSamePages;
using testutil::ExpectSameTable;
using testutil::IoOf;
using testutil::kKeyColumns;
using testutil::KeyGen;
using testutil::LoadBatches;
using testutil::LoadRowLoop;
using testutil::RandomShape;
using testutil::Shape;
using testutil::ShapeRows;
using testutil::Side;

class AppendOracle : public ::testing::TestWithParam<int> {};

// Random tables of 0-4 indexes over ascending, descending, random,
// duplicate and NULL keys, in 8-, 16- and 64-page pools. Four indexes with
// two-level paths and the heap's tail do not fit an 8-page pool's pin
// budget; such loads must still match the row loop.
TEST_P(AppendOracle, RandomTablesMatchTheRowLoopPageForPage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (size_t pool_pages : {8, 16, 64}) {
    const Shape shape = RandomShape(pool_pages, &rng);
    SCOPED_TRACE(::testing::Message() << "pool " << pool_pages << ", " << shape.rows << " rows, "
                                      << shape.indexes << " indexes");
    CheckShape(shape, rng.Next());
  }
}

// Every index of an 8-page pool: the pinned paths cannot all stay.
TEST(AppendOracleTest, FourIndexesInAnEightPagePool) {
  Shape shape;
  shape.pool_pages = 8;
  shape.rows = 3000;
  shape.indexes = 4;
  shape.keys[0].order = KeyGen::kAscending;
  shape.keys[1].order = KeyGen::kDescending;
  shape.keys[2].null_share = 0.5;
  shape.keys[3].range = 50;
  CheckShape(shape, 17);
}

// A disk that fails after a number of writes or reads stops both loads at
// the same row with the same error, and leaves the same table behind. The
// fault lands at a random one of the load's own reads or writes.
TEST_P(AppendOracle, AFaultStopsBothLoadsAtTheSameRow) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  for (size_t pool_pages : {8, 16}) {
    Shape shape = RandomShape(pool_pages, &rng);
    shape.indexes = 1 + rng.Index(kKeyColumns);
    shape.max_payload = 160;  // more heap pages than the pool holds
    Rng data_rng(rng.Next());
    const std::vector<Row> rows = ShapeRows(shape, &data_rng);
    uint64_t load_reads = 0, load_writes = 0;
    {
      Side dry(shape);
      const uint64_t r0 = dry.disk->reads_done(), w0 = dry.disk->writes_done();
      size_t loaded = 0;
      ASSERT_TRUE(LoadRowLoop(&dry, rows, &loaded).ok());
      load_reads = dry.disk->reads_done() - r0;
      load_writes = dry.disk->writes_done() - w0;
    }
    ASSERT_GT(load_writes, 0u) << "the load never wrote; use a smaller pool";
    const bool reads = load_reads > 0 && rng.Bernoulli(0.5);
    const uint64_t budget = rng.Index(reads ? load_reads : load_writes);
    SCOPED_TRACE(::testing::Message() << "pool " << pool_pages << ", " << shape.indexes
                                      << " indexes, fault after " << budget << " of "
                                      << (reads ? load_reads : load_writes)
                                      << (reads ? " reads" : " writes"));
    Side loop(shape), batch(shape);
    for (Side* s : {&loop, &batch}) {
      if (reads) {
        s->disk->set_read_budget(s->disk->reads_done() + budget);
      } else {
        s->disk->set_write_budget(s->disk->writes_done() + budget);
      }
    }
    size_t loop_rows = 0, batch_rows = 0;
    Rng batch_rng(rng.Next());
    const Status ls = LoadRowLoop(&loop, rows, &loop_rows);
    const Status bs = LoadBatches(&batch, rows, &batch_rng, &batch_rows);
    ASSERT_FALSE(ls.ok()) << "the fault never fired";
    EXPECT_EQ(ls.ToString(), bs.ToString());
    EXPECT_EQ(loop_rows, batch_rows);
    ExpectSameIo(IoOf(loop), IoOf(batch), "load up to the fault");
    ExpectSameTable(loop, batch);
    for (Side* s : {&loop, &batch}) {
      s->disk->set_read_budget(FaultInjectionDiskManager::kNoLimit);
      s->disk->set_write_budget(FaultInjectionDiskManager::kNoLimit);
    }
    ExpectSamePages(&loop, &batch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendOracle, ::testing::Range(1, 5));

}  // namespace
}  // namespace pse

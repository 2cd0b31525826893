#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

namespace pse {
namespace {

TEST(BufferPoolTest, NewPageIsZeroedAndPinned) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(g->data()[i], 0);
}

TEST(BufferPoolTest, WriteSurvivesEviction) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
    std::memset(g->mutable_data(), 0x77, kPageSize);
  }
  // Force eviction by cycling more pages than capacity.
  for (int i = 0; i < 4; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
  }
  auto g = pool.FetchPage(pid);
  ASSERT_TRUE(g.ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(static_cast<uint8_t>(g->data()[i]), 0x77);
}

TEST(BufferPoolTest, HitDoesNotTouchDisk) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
  }
  dm.ResetStats();
  {
    auto g = pool.FetchPage(pid);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(dm.stats().page_reads, 0u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, MissReadsFromDisk) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
    g->mutable_data()[0] = 1;
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  dm.ResetStats();
  {
    auto g = pool.FetchPage(pid);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 1);
  }
  EXPECT_EQ(dm.stats().page_reads, 1u);
}

TEST(BufferPoolTest, AllPinnedExhaustsPool) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  g1->Release();
  auto g4 = pool.NewPage();
  EXPECT_TRUE(g4.ok());
}

// A miss whose disk read fails hands its frame back: with one page pinned,
// the next miss still finds a frame in a 2-frame pool.
TEST(BufferPoolTest, FailedReadReturnsItsFrame) {
  FaultInjectionDiskManager dm(std::make_unique<InMemoryDiskManager>());
  BufferPool pool(&dm, 2);
  PageId a, c;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    a = g->page_id();
    std::memset(g->mutable_data(), 0x3C, kPageSize);
  }
  ASSERT_TRUE(pool.NewPage().ok());
  {
    auto g = pool.NewPage();  // evicts a, writing it back
    ASSERT_TRUE(g.ok());
    c = g->page_id();
  }
  dm.set_read_budget(dm.reads_done());
  auto failed = pool.FetchPage(a);  // evicts the second page, then the read fails
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  dm.set_read_budget(FaultInjectionDiskManager::kNoLimit);

  auto pinned = pool.FetchPage(c);
  ASSERT_TRUE(pinned.ok());
  auto g = pool.FetchPage(a);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(static_cast<uint8_t>(g->data()[i]), 0x3C);
}

// A dirty victim whose write-back fails stays dirty at the evicting end of
// the LRU list: the next miss retries the write-back and evicts it, and the
// page's bytes reach the disk.
TEST(BufferPoolTest, FailedWriteBackKeepsTheVictimEvictable) {
  FaultInjectionDiskManager dm(std::make_unique<InMemoryDiskManager>());
  BufferPool pool(&dm, 2);
  PageId a, b;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    a = g->page_id();
    std::memset(g->mutable_data(), 0x5A, kPageSize);
  }
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    b = g->page_id();
  }
  dm.set_write_budget(dm.writes_done());
  auto failed = pool.NewPage();  // a's write-back fails
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  dm.set_write_budget(FaultInjectionDiskManager::kNoLimit);

  auto pinned = pool.FetchPage(b);
  ASSERT_TRUE(pinned.ok());
  auto g = pool.NewPage();  // evicts a again, this time writing it back
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  char buf[kPageSize];
  ASSERT_TRUE(dm.inner()->ReadPage(a, buf).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(static_cast<uint8_t>(buf[i]), 0x5A);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  PageId a, b;
  {
    auto g = pool.NewPage();
    a = g->page_id();
  }
  {
    auto g = pool.NewPage();
    b = g->page_id();
  }
  // Touch a so b becomes LRU.
  { auto g = pool.FetchPage(a); }
  { auto g = pool.NewPage(); }  // evicts b
  dm.ResetStats();
  { auto g = pool.FetchPage(a); }  // should still be resident
  EXPECT_EQ(dm.stats().page_reads, 0u);
  { auto g = pool.FetchPage(b); }  // was evicted -> one read
  EXPECT_EQ(dm.stats().page_reads, 1u);
}

TEST(BufferPoolTest, DirtyEvictionWritesBack) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 1);
  {
    auto g = pool.NewPage();
    g->mutable_data()[5] = 42;
  }
  { auto g = pool.NewPage(); }  // evicts the dirty page
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  EXPECT_GE(dm.stats().page_writes, 1u);
}

TEST(BufferPoolTest, FlushAllCleansFrames) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  PageId pid;
  {
    auto g = pool.NewPage();
    pid = g->page_id();
    g->mutable_data()[0] = 9;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(dm.ReadPage(pid, buf).ok());
  EXPECT_EQ(buf[0], 9);
}

TEST(BufferPoolTest, DeletePageRemovesFromCache) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  PageId pid;
  {
    auto g = pool.NewPage();
    pid = g->page_id();
  }
  ASSERT_TRUE(pool.DeletePage(pid).ok());
  // Frame should be reusable without eviction.
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
}

TEST(BufferPoolTest, MoveGuardTransfersPin) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 1);
  auto g1 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  PageGuard g2 = std::move(*g1);
  EXPECT_TRUE(g2.Valid());
  EXPECT_FALSE(g1->Valid());
  g2.Release();
  auto g3 = pool.NewPage();  // only works if pin was released exactly once
  EXPECT_TRUE(g3.ok());
}

}  // namespace
}  // namespace pse

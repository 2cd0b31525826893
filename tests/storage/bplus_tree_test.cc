#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"

namespace pse {
namespace {

Rid MakeRid(uint32_t p, uint16_t s) { return Rid{p, s}; }

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest() : pool_(&dm_, 512) {}
  InMemoryDiskManager dm_;
  BufferPool pool_;
};

TEST_F(BPlusTreeTest, EmptyTreeScans) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanEqual(5, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree->height(), 1u);
}

TEST_F(BPlusTreeTest, InsertAndPointLookup) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(10, MakeRid(1, 0)).ok());
  ASSERT_TRUE(tree->Insert(20, MakeRid(1, 1)).ok());
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanEqual(10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], MakeRid(1, 0));
  out.clear();
  ASSERT_TRUE(tree->ScanEqual(15, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(BPlusTreeTest, DuplicateKeysAllDistinctRids) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint16_t s = 0; s < 50; ++s) {
    ASSERT_TRUE(tree->Insert(7, MakeRid(2, s)).ok());
  }
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanEqual(7, &out).ok());
  EXPECT_EQ(out.size(), 50u);
}

TEST_F(BPlusTreeTest, ExactDuplicatePairRejected) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(1, MakeRid(1, 1)).ok());
  EXPECT_FALSE(tree->Insert(1, MakeRid(1, 1)).ok());
}

TEST_F(BPlusTreeTest, RangeScanInclusive) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k, MakeRid(static_cast<uint32_t>(k), 0)).ok());
  }
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanRange(10, 19, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  out.clear();
  ASSERT_TRUE(tree->ScanRange(50, 50, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  ASSERT_TRUE(tree->ScanRange(90, 200, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  out.clear();
  ASSERT_TRUE(tree->ScanRange(20, 10, &out).ok());  // empty reversed range
  EXPECT_TRUE(out.empty());
}

TEST_F(BPlusTreeTest, SplitsGrowHeight) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  // 511 entries fit in one leaf; beyond that the root must split.
  for (int64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(tree->Insert(k, MakeRid(0, 0)).ok());
  }
  EXPECT_GE(tree->height(), 2u);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, 600u);
}

TEST_F(BPlusTreeTest, DeleteRemovesEntry) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(5, MakeRid(1, 0)).ok());
  ASSERT_TRUE(tree->Insert(5, MakeRid(1, 1)).ok());
  ASSERT_TRUE(tree->Delete(5, MakeRid(1, 0)).ok());
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanEqual(5, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], MakeRid(1, 1));
  EXPECT_FALSE(tree->Delete(5, MakeRid(1, 0)).ok());  // already gone
}

TEST_F(BPlusTreeTest, NegativeKeys) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (int64_t k = -50; k <= 50; ++k) {
    ASSERT_TRUE(tree->Insert(k, MakeRid(0, 0)).ok());
  }
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanRange(-10, 10, &out).ok());
  EXPECT_EQ(out.size(), 21u);
}

TEST_F(BPlusTreeTest, LargeSequentialInsertKeepsInvariants) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  const int64_t kN = 20000;
  for (int64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree->Insert(k, MakeRid(static_cast<uint32_t>(k % 97), 0)).ok());
  }
  EXPECT_GE(tree->height(), 2u);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, static_cast<uint64_t>(kN));
  std::vector<Rid> out;
  ASSERT_TRUE(tree->ScanRange(0, kN, &out).ok());
  EXPECT_EQ(out.size(), static_cast<size_t>(kN));
}

// Property: random inserts/deletes match a std::multimap reference model.
// Each insert goes in from the root (Insert) or, at random, through a
// cursor (Append); the cursor's pins are released before every other call.
class BPlusTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeProperty, MatchesReferenceModel) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 1024);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor;
  PinList pins(PinList::Budget(pool));
  Rng rng(GetParam());
  std::set<std::pair<int64_t, uint64_t>> model;
  for (int step = 0; step < 20000; ++step) {
    if (rng.UniformDouble() < 0.75 || model.empty()) {
      int64_t key = rng.UniformInt(0, 500);  // small domain forces duplicates
      Rid rid = MakeRid(static_cast<uint32_t>(rng.UniformInt(0, 1 << 20)),
                        static_cast<uint16_t>(rng.UniformInt(0, 100)));
      bool fresh = model.insert({key, rid.Pack()}).second;
      Status s;
      if (rng.Bernoulli(0.5)) {
        s = tree->Append(key, rid, &cursor, &pins);
      } else {
        pins.ReleaseAll();
        s = tree->Insert(key, rid);
      }
      EXPECT_EQ(s.ok(), fresh);
      if (!fresh) {
        EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
      }
    } else {
      pins.ReleaseAll();
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      ASSERT_TRUE(tree->Delete(it->first, Rid::Unpack(it->second)).ok());
      model.erase(it);
    }
  }
  pins.ReleaseAll();
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, model.size());
  EXPECT_EQ(tree->num_entries(), model.size());
  // Spot-check all point scans over the key domain.
  for (int64_t key = 0; key <= 500; ++key) {
    std::vector<Rid> got;
    ASSERT_TRUE(tree->ScanEqual(key, &got).ok());
    std::vector<uint64_t> got_packed;
    for (auto& r : got) got_packed.push_back(r.Pack());
    std::vector<uint64_t> want;
    for (auto it = model.lower_bound({key, 0}); it != model.end() && it->first == key; ++it) {
      want.push_back(it->second);
    }
    std::sort(got_packed.begin(), got_packed.end());
    ASSERT_EQ(got_packed, want) << "key=" << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeProperty, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace pse

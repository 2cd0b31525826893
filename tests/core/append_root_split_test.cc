// The append path against the row loop (tests/storage/append_oracle.h) on
// enough ascending keys that the B+ tree's root, an internal node, splits:
// 409 leaves of 255 entries. The split runs through Insert, and the cursor
// takes the new root's path. It lives here rather than in storage_test,
// with the seeded tables, because its row loop alone takes 15 s under the
// TSan leg, which runs storage_test and not this binary.
#include <gtest/gtest.h>

#include "tests/storage/append_oracle.h"

namespace pse {
namespace {

TEST(AppendOracleTest, RootSplitMatchesTheRowLoop) {
  testutil::Shape shape;
  shape.pool_pages = 16;
  shape.rows = 105000;
  shape.indexes = 1;
  shape.max_payload = 0;
  shape.keys[0].order = testutil::KeyGen::kAscending;
  uint32_t height = 0;
  testutil::CheckShape(shape, 23, &height);
  EXPECT_EQ(height, 3u) << "the root never split";
}

}  // namespace
}  // namespace pse

// Paged B+ tree index mapping int64 keys to tuple Rids.
//
// Duplicate keys are supported by making every stored key the composite
// (key, packed rid), which is unique; internal separators carry the full
// composite, so the tree is a textbook unique-key B+ tree.
//
// Deletes remove leaf entries without rebalancing (pages may underflow but
// never violate ordering); the workloads here are insert/scan heavy, and the
// cost model charges index height, which merging would not change much.
//
// Page layouts:
//   common  [0] u8 node_type (1=leaf, 2=internal); [2..4) u16 entry count
//   leaf    [4..8) u32 next_leaf; entries at 8+i*16: {i64 key, u64 rid}
//   internal[8..12) u32 child0; entries at 12+i*20: {i64 key, u64 rid,
//            u32 child}; entry i separates child i and child i+1.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pin_list.h"
#include "storage/storage_defs.h"

namespace pse {

/// \brief B+ tree over (int64 key, Rid) pairs.
class BPlusTree {
 public:
  /// Creates an empty tree (allocates the root leaf).
  static Result<BPlusTree> Create(BufferPool* pool);

  /// Re-attaches to a persisted tree (root/height/entries from the
  /// catalog superblock).
  static BPlusTree Attach(BufferPool* pool, PageId root, uint32_t height,
                          uint64_t num_entries);

  /// \brief The root-to-leaf path an append batch keeps pinned in one tree.
  ///
  /// Level l holds its page's handle in the batch's PinList (kNone once
  /// released) and the composite bounds its parent's separators give it:
  /// the keys the row loop's descent from the root would route through it.
  struct Cursor {
    struct Level {
      int32_t pin;
      bool has_lo;  ///< false: unbounded below
      bool has_hi;  ///< false: unbounded above
      int64_t lo_key, hi_key;
      uint64_t lo_rid, hi_rid;
    };
    /// Deeper than any tree gets: at half-full fanout 2^32 pages make 6
    /// levels. A deeper tree inserts through Insert.
    static constexpr uint32_t kMaxHeight = 8;

    /// Levels are set when the path is first taken, so a batch of one pays
    /// nothing to make a cursor.
    Cursor() {}  // NOLINT(modernize-use-equals-default): leaves `levels` unset

    std::array<Level, kMaxHeight> levels;  ///< [0] is the root
    uint32_t height = 0;  ///< levels in use: the tree's height when taken
  };

  /// Inserts (key, rid) from the root. Duplicate (key, rid) pairs are
  /// rejected.
  Status Insert(int64_t key, Rid rid);

  /// \brief Inserts (key, rid) through `cursor`: the one key insert.
  ///
  /// Descends only from the deepest held level whose bounds cover the key,
  /// holding the pages it fetches in `pins` and dropping the levels it
  /// leaves. A key that lands in a leaf with room is written there; a full
  /// leaf releases every held page and leaves the split to Insert. Touches
  /// the path leaf first and root last, as the row loop unpins it, so pages
  /// and I/O are Insert's (PinList).
  Status Append(int64_t key, Rid rid, Cursor* cursor, PinList* pins);
  /// Removes (key, rid). NotFound if absent.
  Status Delete(int64_t key, Rid rid);
  /// Collects the rids of all entries with exactly `key`.
  Status ScanEqual(int64_t key, std::vector<Rid>* out) const;
  /// Collects rids for key in [lo, hi] (inclusive).
  Status ScanRange(int64_t lo, int64_t hi, std::vector<Rid>* out) const;

  /// Number of levels (1 = root is a leaf).
  uint32_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  PageId root() const { return root_; }

  /// Verifies ordering and child-separator invariants; returns the number
  /// of entries seen. Test helper.
  Result<uint64_t> CheckInvariants() const;

 private:
  explicit BPlusTree(BufferPool* pool) : pool_(pool) {}

  struct SplitResult {
    int64_t key;
    uint64_t rid;
    PageId right;
  };

  Status InsertRec(PageId node, int64_t key, uint64_t rid,
                   std::optional<SplitResult>* split);
  /// Descends to the leaf that may contain the first entry >= (key, rid).
  Result<PageId> FindLeaf(int64_t key, uint64_t rid) const;
  Result<uint64_t> CheckNode(PageId node, bool has_lo, int64_t lo_key, uint64_t lo_rid,
                             bool has_hi, int64_t hi_key, uint64_t hi_rid,
                             uint32_t depth, uint32_t* leaf_depth) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;
  uint64_t num_entries_ = 0;
};

}  // namespace pse

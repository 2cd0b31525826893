// The pages one append batch keeps pinned between rows (DESIGN.md §20).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"

namespace pse {

/// \brief The pages an append batch keeps pinned, in the order the
/// row-at-a-time insert last unpinned them.
///
/// The row loop fetches and unpins every page it touches, for every row:
/// the heap's last page and each index's root-to-leaf path. A batch holds
/// those pages here instead and touches them in the row loop's unpin order,
/// so it skips the pool for them. Two rules keep the page images and the
/// disk I/O the row loop's:
/// - Order. A page leaves the list only from its old end, and a caller that
///   unpins a page of its own empties the list first (ReleaseAll). So every
///   page the list holds is newer than every page on the pool's LRU list,
///   and each page reaches that list in the order the row loop last
///   unpinned it: the LRU order, and with it every eviction, is the row
///   loop's.
/// - Room. Apart from the pages the current operation uses, which the row
///   loop pins as well, the list holds fewer than `budget` pages whenever it
///   pins another (Reserve). With a budget under the pool's capacity the
///   pool keeps an evictable frame, so the LRU victim is the row loop's.
///
/// An owner (the heap's tail, one level of an index path) names its page
/// by a handle, which the list resets to kNone when it releases the page.
/// Not thread-safe: one batch uses it, under its table's exclusive latch.
class PinList {
 public:
  static constexpr int32_t kNone = -1;

  /// Half of `pool`'s frames: the other half stays free for other threads'
  /// pins.
  static size_t Budget(const BufferPool& pool) { return pool.capacity() / 2; }

  explicit PinList(size_t budget) : budget_(budget) { entries_.reserve(kEntries); }
  PinList(const PinList&) = delete;
  PinList& operator=(const PinList&) = delete;
  /// Releases every page, oldest first. Owners may be gone by now, so their
  /// handles are left alone.
  ~PinList() { ReleaseInOrder(/*reset_owners=*/false); }

  /// Starts one operation (a heap append or one key's insert): pages it
  /// touches or holds from here on are in use, and Reserve keeps them.
  void BeginOp() { op_start_ = clock_ + 1; }
  /// Call before pinning one more page: while the list holds `budget` pages
  /// or more, releases the oldest page not in use.
  void Reserve();
  /// Holds `guard`'s page, used now; `*owner` receives its handle.
  void Hold(PageGuard&& guard, int32_t* owner);
  /// Marks the page of handle `h` used now.
  void Touch(int32_t h) {
    entries_[h].stamp = ++clock_;
    if (h != newest_) {
      Unlink(h);
      LinkNewest(h);
    }
  }
  /// The pin behind handle `h`. The reference lasts until the next Hold;
  /// the page bytes, while the page is held.
  PageGuard& guard(int32_t h) { return entries_[h].guard; }
  /// The owner of `h` is done with its page and its handle becomes kNone.
  /// The page stays pinned until it is the oldest (ReleaseDropped).
  void Drop(int32_t h);
  /// Releases dropped pages from the old end of the list.
  void ReleaseDropped();
  /// Releases every page, oldest first.
  void ReleaseAll() { ReleaseInOrder(/*reset_owners=*/true); }

 private:
  /// Entries reserved up front: a heap page and a few index paths.
  static constexpr size_t kEntries = 16;

  struct Entry {
    PageGuard guard;           ///< invalid while the entry is free
    uint64_t stamp = 0;        ///< when the row loop last used the page
    int32_t* owner = nullptr;  ///< nullptr once dropped
    int32_t older = kNone;     ///< neighbours by stamp; free entries chain
    int32_t newer = kNone;     ///< through `newer`
  };

  void Unlink(int32_t h);
  void LinkNewest(int32_t h);
  void Release(int32_t h, bool reset_owner);
  void ReleaseInOrder(bool reset_owners);

  size_t budget_;
  uint64_t clock_ = 0;
  uint64_t op_start_ = 1;
  std::vector<Entry> entries_;
  int32_t oldest_ = kNone;  ///< the held entries, oldest to newest
  int32_t newest_ = kNone;
  int32_t free_ = kNone;    ///< entries to reuse before entries_ grows
  size_t held_ = 0;
  size_t dropped_ = 0;
};

}  // namespace pse

// LRU buffer pool. Physical I/O happens only on miss (read) and on eviction
// or flush of a dirty frame (write); the hit/miss counters feed the
// experiments' actual-I/O measurements.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/lock_registry.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/storage_defs.h"

namespace pse {

class BufferPool;

/// \brief RAII pin on a buffered page.
///
/// Unpins (propagating the dirty flag) on destruction. Movable, not
/// copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId page_id, char* data)
      : pool_(pool), page_id_(page_id), data_(data) {}
  PageGuard(PageGuard&& o) noexcept
      : pool_(o.pool_), page_id_(o.page_id_), data_(o.data_), dirty_(o.dirty_) {
    o.pool_ = nullptr;
    o.data_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      page_id_ = o.page_id_;
      data_ = o.data_;
      dirty_ = o.dirty_;
      o.pool_ = nullptr;
      o.data_ = nullptr;
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool Valid() const { return data_ != nullptr; }
  PageId page_id() const { return page_id_; }
  const char* data() const { return data_; }
  /// Grants write access and marks the frame dirty.
  char* mutable_data() {
    dirty_ = true;
    return data_;
  }

  /// Explicit early unpin.
  void Release() {
    if (pool_ != nullptr && data_ != nullptr) Unpin();
    pool_ = nullptr;
    data_ = nullptr;
    dirty_ = false;
  }

 private:
  void Unpin();

  BufferPool* pool_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool dirty_ = false;
};

/// Buffer pool statistics (logical accesses; physical I/O is in IoStats).
/// Atomic so they can be sampled without the pool latch; copies snapshot.
struct BufferPoolStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> dirty_writebacks{0};

  BufferPoolStats() = default;
  BufferPoolStats(const BufferPoolStats& o) { *this = o; }
  BufferPoolStats& operator=(const BufferPoolStats& o) {
    if (this != &o) {
      hits.store(o.hits.load(std::memory_order_relaxed), std::memory_order_relaxed);
      misses.store(o.misses.load(std::memory_order_relaxed), std::memory_order_relaxed);
      evictions.store(o.evictions.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      dirty_writebacks.store(o.dirty_writebacks.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    return *this;
  }
  void Reset() {
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    dirty_writebacks.store(0, std::memory_order_relaxed);
  }
};

/// \brief Fixed-capacity page cache with exact LRU replacement.
///
/// Thread-safe: a single internal mutex guards the page table, frame
/// metadata, and the LRU list, and is held across the miss-path disk
/// I/O so two threads can never race a fetch of the same page into two
/// frames. Pinned frames are never evicted and frame buffers are allocated
/// once and never freed, so the `char*` handed out inside a PageGuard stays
/// valid after the latch drops — page *content* synchronization is the
/// caller's job (the table-level latches in Database; DESIGN.md §15).
class BufferPool {
 public:
  /// `capacity` is the number of resident frames.
  BufferPool(DiskManager* disk, size_t capacity);

  /// Allocates a new page and returns it pinned (zeroed, dirty).
  Result<PageGuard> NewPage();
  /// Fetches an existing page, reading from disk on miss. Returns pinned.
  Result<PageGuard> FetchPage(PageId page_id);
  /// Drops a page from the cache and deallocates it. Must be unpinned.
  Status DeletePage(PageId page_id);
  /// Writes back all dirty frames.
  Status FlushAll();
  /// Drops every unpinned frame (writing back dirty ones). Used to model a
  /// cold cache between experiment phases.
  Status EvictAll();

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  DiskManager* disk() const { return disk_; }
  size_t capacity() const { return capacity_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    std::unique_ptr<char[]> data;
    std::list<size_t>::iterator lru_it;  // valid iff pin_count == 0 and resident
    bool in_lru = false;
  };

  void Unpin(PageId page_id, bool dirty);
  /// Finds a free frame, evicting the LRU unpinned frame if needed.
  /// Caller must hold mu_.
  Result<size_t> GetFreeFrame();

  DiskManager* disk_;
  size_t capacity_;
  mutable Mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::list<size_t> lru_;  // front = most recent
  BufferPoolStats stats_;
};

}  // namespace pse

#include "storage/buffer_pool.h"

#include <cstring>

namespace pse {

void PageGuard::Unpin() { pool_->Unpin(page_id_, dirty_); }

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity), frames_(capacity) {
  // Leaf of the latch hierarchy; the miss path does disk I/O under mu_ by
  // design, hence allows_io.
  mu_.LockdepRegister("bufferpool", kLockRankBufferPool, /*allows_io=*/true);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) free_frames_.push_back(capacity - 1 - i);
}

Result<size_t> BufferPool::GetFreeFrame() {
  if (!free_frames_.empty()) {
    size_t f = free_frames_.back();
    free_frames_.pop_back();
    if (frames_[f].data == nullptr) frames_[f].data = std::make_unique<char[]>(kPageSize);
    return f;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  const size_t victim = lru_.back();
  Frame& fr = frames_[victim];
  if (fr.dirty) {
    // A failed write-back leaves the victim mapped, dirty and still at the
    // evicting end of the LRU list, so the next miss retries it.
    PSE_RETURN_NOT_OK(disk_->WritePage(fr.page_id, fr.data.get()));
    stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
    fr.dirty = false;
  }
  lru_.pop_back();
  fr.in_lru = false;
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  page_table_.erase(fr.page_id);
  fr.page_id = kInvalidPageId;
  return victim;
}

Result<PageGuard> BufferPool::NewPage() {
  std::lock_guard<Mutex> lock(mu_);
  PSE_ASSIGN_OR_RETURN(size_t f, GetFreeFrame());
  PageId pid = disk_->AllocatePage();
  Frame& fr = frames_[f];
  fr.page_id = pid;
  fr.pin_count = 1;
  fr.dirty = true;  // a new page must eventually reach disk
  std::memset(fr.data.get(), 0, kPageSize);
  page_table_[pid] = f;
  return PageGuard(this, pid, fr.data.get());
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  if (page_id == kInvalidPageId) return Status::InvalidArgument("fetch of invalid page id");
  std::lock_guard<Mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    Frame& fr = frames_[it->second];
    if (fr.pin_count == 0 && fr.in_lru) {
      lru_.erase(fr.lru_it);
      fr.in_lru = false;
    }
    ++fr.pin_count;
    return PageGuard(this, page_id, fr.data.get());
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  // The latch is held across the miss-path read on purpose: it keeps two
  // threads from racing the same page into two frames, at the cost of
  // serializing physical I/O (fine — the experiments count I/Os, they do
  // not overlap device latency).
  PSE_ASSIGN_OR_RETURN(size_t f, GetFreeFrame());
  Frame& fr = frames_[f];
  Status read = disk_->ReadPage(page_id, fr.data.get());
  if (!read.ok()) {
    // The frame holds no page now: hand it back rather than lose it.
    free_frames_.push_back(f);
    return read;
  }
  fr.page_id = page_id;
  fr.pin_count = 1;
  fr.dirty = false;
  page_table_[page_id] = f;
  return PageGuard(this, page_id, fr.data.get());
}

void BufferPool::Unpin(PageId page_id, bool dirty) {
  std::lock_guard<Mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return;
  Frame& fr = frames_[it->second];
  if (dirty) fr.dirty = true;
  if (fr.pin_count > 0) --fr.pin_count;
  if (fr.pin_count == 0 && !fr.in_lru) {
    lru_.push_front(it->second);
    fr.lru_it = lru_.begin();
    fr.in_lru = true;
  }
}

Status BufferPool::DeletePage(PageId page_id) {
  std::lock_guard<Mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame& fr = frames_[it->second];
    if (fr.pin_count > 0) return Status::Internal("DeletePage on pinned page");
    if (fr.in_lru) {
      lru_.erase(fr.lru_it);
      fr.in_lru = false;
    }
    fr.page_id = kInvalidPageId;
    free_frames_.push_back(it->second);
    page_table_.erase(it);
  }
  disk_->DeallocatePage(page_id);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<Mutex> lock(mu_);
  for (auto& [pid, f] : page_table_) {
    Frame& fr = frames_[f];
    if (fr.dirty) {
      PSE_RETURN_NOT_OK(disk_->WritePage(fr.page_id, fr.data.get()));
      stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      fr.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  std::lock_guard<Mutex> lock(mu_);
  for (auto& [pid, f] : page_table_) {
    Frame& fr = frames_[f];
    if (fr.dirty) {
      PSE_RETURN_NOT_OK(disk_->WritePage(fr.page_id, fr.data.get()));
      stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      fr.dirty = false;
    }
  }
  for (auto it = page_table_.begin(); it != page_table_.end();) {
    Frame& fr = frames_[it->second];
    if (fr.pin_count == 0) {
      if (fr.in_lru) {
        lru_.erase(fr.lru_it);
        fr.in_lru = false;
      }
      fr.page_id = kInvalidPageId;
      free_frames_.push_back(it->second);
      it = page_table_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

}  // namespace pse

#include "storage/pin_list.h"

namespace pse {

void PinList::Reserve() {
  while (held_ >= budget_ && oldest_ != kNone && entries_[oldest_].stamp < op_start_) {
    Release(oldest_, /*reset_owner=*/true);
  }
}

void PinList::Hold(PageGuard&& guard, int32_t* owner) {
  int32_t h = free_;
  if (h != kNone) {
    free_ = entries_[h].newer;
  } else {
    h = static_cast<int32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[h];
  e.guard = std::move(guard);
  e.stamp = ++clock_;
  e.owner = owner;
  *owner = h;
  LinkNewest(h);
  ++held_;
}

void PinList::Drop(int32_t h) {
  Entry& e = entries_[h];
  *e.owner = kNone;
  e.owner = nullptr;
  ++dropped_;
}

void PinList::ReleaseDropped() {
  while (dropped_ > 0 && entries_[oldest_].owner == nullptr) {
    Release(oldest_, /*reset_owner=*/true);
  }
}

void PinList::Unlink(int32_t h) {
  Entry& e = entries_[h];
  (e.older != kNone ? entries_[e.older].newer : oldest_) = e.newer;
  (e.newer != kNone ? entries_[e.newer].older : newest_) = e.older;
}

void PinList::LinkNewest(int32_t h) {
  Entry& e = entries_[h];
  e.older = newest_;
  e.newer = kNone;
  (newest_ != kNone ? entries_[newest_].newer : oldest_) = h;
  newest_ = h;
}

void PinList::Release(int32_t h, bool reset_owner) {
  Entry& e = entries_[h];
  if (e.owner == nullptr) {
    --dropped_;
  } else if (reset_owner) {
    *e.owner = kNone;
  }
  e.owner = nullptr;
  Unlink(h);
  e.guard.Release();
  e.newer = free_;
  free_ = h;
  --held_;
}

void PinList::ReleaseInOrder(bool reset_owners) {
  while (oldest_ != kNone) Release(oldest_, reset_owners);
}

}  // namespace pse

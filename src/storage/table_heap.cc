#include "storage/table_heap.h"

#include <cstring>

namespace pse {

namespace {
constexpr size_t kHeaderSize = 8;
constexpr size_t kSlotSize = 4;

uint16_t GetU16(const char* p, size_t off) {
  uint16_t v;
  std::memcpy(&v, p + off, 2);
  return v;
}
void PutU16(char* p, size_t off, uint16_t v) { std::memcpy(p + off, &v, 2); }
uint32_t GetU32(const char* p, size_t off) {
  uint32_t v;
  std::memcpy(&v, p + off, 4);
  return v;
}
void PutU32(char* p, size_t off, uint32_t v) { std::memcpy(p + off, &v, 4); }

void InitPage(char* p) {
  PutU32(p, 0, kInvalidPageId);
  PutU16(p, 4, 0);
  PutU16(p, 6, static_cast<uint16_t>(kPageSize));
}

struct Slot {
  uint16_t offset;
  uint16_t size;
};

/// Reads slot `i` of heap page `p`, whose slot count is `slot_count`, into
/// `*out` and checks it against the page: the slot array must end inside
/// the page, and a live tuple must lie between the slot array's end and the
/// page's end. Every slot reader comes through here, so a corrupt slot
/// count or slot fails the read instead of sending it past the page. A
/// deleted slot (offset 0) passes as is. False when the check fails;
/// SlotError then builds the status, so the check that runs for every slot
/// of every scan builds none.
bool ReadSlot(const char* p, uint16_t slot_count, uint16_t i, Slot* out) {
  const size_t slots_end = kHeaderSize + static_cast<size_t>(slot_count) * kSlotSize;
  if (slots_end > kPageSize) return false;
  *out = Slot{GetU16(p, kHeaderSize + i * kSlotSize), GetU16(p, kHeaderSize + i * kSlotSize + 2)};
  return out->offset == 0 ||
         (out->offset >= slots_end && static_cast<size_t>(out->offset) + out->size <= kPageSize);
}

/// The Internal status of slot `i` of heap page `pid` (bytes `p`), which
/// ReadSlot rejected.
Status SlotError(const char* p, PageId pid, uint16_t i) {
  if (kHeaderSize + static_cast<size_t>(GetU16(p, 4)) * kSlotSize > kPageSize) {
    return Status::Internal("heap page " + std::to_string(pid) + " has a malformed slot count");
  }
  return Status::Internal("heap page " + std::to_string(pid) + " slot " + std::to_string(i) +
                          " is out of bounds");
}

void PutSlot(char* p, uint16_t i, Slot s) {
  PutU16(p, kHeaderSize + i * kSlotSize, s.offset);
  PutU16(p, kHeaderSize + i * kSlotSize + 2, s.size);
}

/// Free contiguous bytes available for one more tuple + slot entry.
size_t FreeSpace(const char* p) {
  size_t slots_end = kHeaderSize + GetU16(p, 4) * kSlotSize;
  size_t free_end = GetU16(p, 6) == 0 ? kPageSize : GetU16(p, 6);
  if (free_end < slots_end + kSlotSize) return 0;
  return free_end - slots_end - kSlotSize;
}

/// InvalidArgument when a tuple of `size` bytes fits no page.
Status CheckFits(size_t size) {
  if (size + kSlotSize + kHeaderSize > kPageSize) {
    return Status::InvalidArgument("tuple of " + std::to_string(size) +
                                   " bytes exceeds page capacity");
  }
  return Status::OK();
}
}  // namespace

uint16_t TableHeap::SlotCount(const char* page) { return GetU16(page, 4); }
uint16_t TableHeap::FreeEnd(const char* page) { return GetU16(page, 6); }
PageId TableHeap::NextPage(const char* page) { return GetU32(page, 0); }

Result<TableHeap> TableHeap::Create(BufferPool* pool, const TableSchema* schema) {
  TableHeap heap(pool, schema);
  PSE_ASSIGN_OR_RETURN(PageGuard guard, pool->NewPage());
  InitPage(guard.mutable_data());
  heap.first_page_ = guard.page_id();
  heap.last_page_ = guard.page_id();
  heap.num_pages_ = 1;
  return heap;
}

TableHeap TableHeap::Attach(BufferPool* pool, const TableSchema* schema, PageId first_page,
                            PageId last_page, uint64_t num_pages) {
  TableHeap heap(pool, schema);
  heap.first_page_ = first_page;
  heap.last_page_ = last_page;
  heap.num_pages_ = num_pages;
  return heap;
}

Result<Rid> TableHeap::Append(const Row& row, Tail* tail, PinList* pins) {
  tail->bytes.clear();
  PSE_RETURN_NOT_OK(TupleCodec::Serialize(*schema_, row, &tail->bytes));
  PSE_RETURN_NOT_OK(CheckFits(tail->bytes.size()));
  return AppendBytes(tail, pins);
}

Result<Rid> TableHeap::Insert(const Row& row) {
  Tail tail;
  PinList pins(PinList::Budget(*pool_));
  return Append(row, &tail, &pins);
}

Result<Rid> TableHeap::AppendBytes(Tail* tail, PinList* pins) {
  const std::string& bytes = tail->bytes;
  pins->BeginOp();
  if (tail->pin == PinList::kNone) {
    pins->Reserve();
    PSE_ASSIGN_OR_RETURN(PageGuard last, pool_->FetchPage(last_page_));
    pins->Hold(std::move(last), &tail->pin);
  } else {
    pins->Touch(tail->pin);
  }
  if (FreeSpace(pins->guard(tail->pin).data()) < bytes.size()) {
    // Link and switch to a fresh page. The row loop unpins the old last
    // page here, just before the fresh one.
    pins->Reserve();
    PSE_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
    InitPage(fresh.mutable_data());
    PutU32(pins->guard(tail->pin).mutable_data(), 0, fresh.page_id());
    last_page_ = fresh.page_id();
    ++num_pages_;
    pins->Drop(tail->pin);
    pins->Hold(std::move(fresh), &tail->pin);
  }
  PageGuard& guard = pins->guard(tail->pin);
  char* p = guard.mutable_data();
  uint16_t slot_count = GetU16(p, 4);
  uint16_t free_end = GetU16(p, 6);
  uint16_t offset = static_cast<uint16_t>(free_end - bytes.size());
  std::memcpy(p + offset, bytes.data(), bytes.size());
  PutSlot(p, slot_count, Slot{offset, static_cast<uint16_t>(bytes.size())});
  PutU16(p, 4, static_cast<uint16_t>(slot_count + 1));
  PutU16(p, 6, offset);
  return Rid{guard.page_id(), slot_count};
}

Status TableHeap::Get(const Rid& rid, Row* out) const {
  PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  const char* p = guard.data();
  const uint16_t slot_count = GetU16(p, 4);
  if (rid.slot >= slot_count) return Status::NotFound("rid slot out of range");
  Slot s{};
  if (!ReadSlot(p, slot_count, rid.slot, &s)) return SlotError(p, rid.page_id, rid.slot);
  if (s.offset == 0) return Status::NotFound("tuple deleted");
  return TupleCodec::Deserialize(*schema_, p + s.offset, s.size, out);
}

Status TableHeap::CopyTuple(const Rid& rid, TupleBytes* out) const {
  PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  const char* p = guard.data();
  const uint16_t slot_count = GetU16(p, 4);
  if (rid.slot >= slot_count) return Status::NotFound("rid slot out of range");
  Slot s{};
  if (!ReadSlot(p, slot_count, rid.slot, &s)) return SlotError(p, rid.page_id, rid.slot);
  if (s.offset == 0) return Status::NotFound("tuple deleted");
  out->Append(p + s.offset, s.size);
  return Status::OK();
}

Status TableHeap::Delete(const Rid& rid) {
  PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page_id));
  char* p = guard.mutable_data();
  const uint16_t slot_count = GetU16(p, 4);
  if (rid.slot >= slot_count) return Status::NotFound("rid slot out of range");
  Slot s{};
  if (!ReadSlot(p, slot_count, rid.slot, &s)) return SlotError(p, rid.page_id, rid.slot);
  if (s.offset == 0) return Status::NotFound("tuple already deleted");
  PutSlot(p, rid.slot, Slot{0, 0});
  return Status::OK();
}

Result<Rid> TableHeap::Update(const Rid& rid, const Row& row) {
  Tail tail;
  PSE_RETURN_NOT_OK(TupleCodec::Serialize(*schema_, row, &tail.bytes));
  const std::string& bytes = tail.bytes;
  // A tuple no page holds fails before its old slot is touched.
  PSE_RETURN_NOT_OK(CheckFits(bytes.size()));
  PSE_ASSIGN_OR_RETURN(PageGuard old, pool_->FetchPage(rid.page_id));
  char* p = old.mutable_data();
  const uint16_t slot_count = GetU16(p, 4);
  if (rid.slot >= slot_count) return Status::NotFound("rid slot out of range");
  Slot s{};
  if (!ReadSlot(p, slot_count, rid.slot, &s)) return SlotError(p, rid.page_id, rid.slot);
  if (s.offset == 0) return Status::NotFound("tuple deleted");
  if (bytes.size() <= s.size) {
    // In-place: keep the slot, shrink logical size.
    std::memcpy(p + s.offset, bytes.data(), bytes.size());
    PutSlot(p, rid.slot, Slot{s.offset, static_cast<uint16_t>(bytes.size())});
    return rid;
  }
  // Relocate. The old page stays pinned through the append, so a failed
  // append can put the slot back without another fetch; it is unpinned
  // first afterwards, as the row loop unpinned it before appending.
  PutSlot(p, rid.slot, Slot{0, 0});
  PinList pins(PinList::Budget(*pool_));
  Result<Rid> moved = AppendBytes(&tail, &pins);
  if (!moved.ok()) PutSlot(p, rid.slot, s);
  old.Release();
  pins.ReleaseAll();
  return moved;
}

Result<uint64_t> TableHeap::CountRowsBounded(uint64_t max_pages) const {
  uint64_t count = 0;
  uint64_t pages = 0;
  PageId pid = first_page_;
  while (pid != kInvalidPageId) {
    if (++pages > max_pages) {
      return Status::Internal("heap chain longer than the " + std::to_string(max_pages) +
                              " pages the catalog records");
    }
    PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
    const char* p = guard.data();
    const uint16_t slot_count = GetU16(p, 4);
    for (uint16_t i = 0; i < slot_count; ++i) {
      Slot s{};
      if (!ReadSlot(p, slot_count, i, &s)) return SlotError(p, pid, i);
      if (s.offset != 0) ++count;  // 0: deleted
    }
    pid = GetU32(p, 0);
  }
  return count;
}

Status TableHeap::TruncateChain(uint64_t keep_pages) {
  if (keep_pages == 0) return Status::InvalidArgument("cannot truncate a heap to zero pages");
  PageId pid = first_page_;
  for (uint64_t i = 1; i < keep_pages; ++i) {
    PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
    PageId next = GetU32(guard.data(), 0);
    if (next == kInvalidPageId) {
      // Chain is already shorter than requested; nothing to cut.
      last_page_ = pid;
      num_pages_ = i;
      return Status::OK();
    }
    pid = next;
  }
  PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
  PutU32(guard.mutable_data(), 0, kInvalidPageId);
  last_page_ = pid;
  num_pages_ = keep_pages;
  return Status::OK();
}

template <typename OnTuple, typename OnPageDone>
Result<bool> TableHeap::Walk(PageId pid, uint32_t slot, OnTuple&& on_tuple,
                             OnPageDone&& on_page_done) const {
  while (pid != kInvalidPageId) {
    PSE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
    const char* p = guard.data();
    const uint16_t slot_count = GetU16(p, 4);
    for (; slot < slot_count; ++slot) {
      Slot s{};
      if (!ReadSlot(p, slot_count, static_cast<uint16_t>(slot), &s)) {
        return SlotError(p, pid, static_cast<uint16_t>(slot));
      }
      if (s.offset == 0) continue;
      PSE_ASSIGN_OR_RETURN(bool more,
                           on_tuple(Rid{pid, static_cast<uint16_t>(slot)}, p + s.offset, s.size));
      if (!more) return true;
    }
    on_page_done();
    pid = GetU32(p, 0);
    slot = 0;
  }
  return false;
}

Result<TableHeap::Iterator> TableHeap::Begin() const { return Seek(Rid{first_page_, 0}); }

Result<TableHeap::Iterator> TableHeap::Seek(const Rid& rid) const {
  Iterator it(this);
  it.rid_ = rid;
  PSE_RETURN_NOT_OK(it.Advance(/*include_current=*/true));
  return it;
}

Status TableHeap::ScanTuples(TupleVisitor* visitor) const {
  return Walk(
             first_page_, 0,
             [visitor](Rid rid, const char* bytes, size_t size) -> Result<bool> {
               PSE_RETURN_NOT_OK(visitor->Tuple(rid, bytes, size));
               return true;
             },
             [visitor] { visitor->PageDone(); })
      .status();
}

Status TableHeap::Iterator::Next() { return Advance(/*include_current=*/false); }

Status TableHeap::Iterator::TakeCurrent(Rid rid, const char* bytes, size_t size) {
  rid_ = rid;
  return TupleCodec::Deserialize(*heap_->schema_, bytes, size, &row_);
}

Result<size_t> TableHeap::Iterator::FillBatch(size_t max_rows, std::vector<Row>* out) {
  if (at_end_ || max_rows == 0) return size_t{0};
  // The current tuple is already deserialized; hand it over directly.
  out->push_back(std::move(row_));
  size_t added = 1;
  PSE_ASSIGN_OR_RETURN(
      bool stopped,
      heap_->Walk(
          rid_.page_id, rid_.slot + 1u,
          [&](Rid rid, const char* bytes, size_t size) -> Result<bool> {
            if (added == max_rows) {
              // Batch full: this tuple becomes the iterator's current row.
              PSE_RETURN_NOT_OK(TakeCurrent(rid, bytes, size));
              return false;
            }
            Row r;
            PSE_RETURN_NOT_OK(TupleCodec::Deserialize(*heap_->schema_, bytes, size, &r));
            out->push_back(std::move(r));
            ++added;
            return true;
          },
          [] {}));
  at_end_ = !stopped;
  return added;
}

Result<size_t> TableHeap::Iterator::FillTupleBytes(size_t max_rows, TupleBytes* out) {
  if (at_end_ || max_rows == 0) return size_t{0};
  // Start AT the current tuple: its page is the first one fetched anyway
  // (as in FillBatch), so its bytes come from there rather than from the
  // already-decoded row_.
  size_t added = 0;
  PSE_ASSIGN_OR_RETURN(
      bool stopped,
      heap_->Walk(
          rid_.page_id, rid_.slot,
          [&](Rid rid, const char* bytes, size_t size) -> Result<bool> {
            if (added == max_rows) {
              // Batch full: this tuple becomes the iterator's current row.
              PSE_RETURN_NOT_OK(TakeCurrent(rid, bytes, size));
              return false;
            }
            out->Append(bytes, size);
            ++added;
            return true;
          },
          [] {}));
  at_end_ = !stopped;
  return added;
}

Status TableHeap::Iterator::Advance(bool include_current) {
  const uint32_t slot = include_current ? rid_.slot : rid_.slot + 1u;
  PSE_ASSIGN_OR_RETURN(bool stopped,
                       heap_->Walk(
                           rid_.page_id, slot,
                           [this](Rid rid, const char* bytes, size_t size) -> Result<bool> {
                             PSE_RETURN_NOT_OK(TakeCurrent(rid, bytes, size));
                             return false;
                           },
                           [] {}));
  at_end_ = !stopped;
  return Status::OK();
}

}  // namespace pse

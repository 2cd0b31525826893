// Heap file of slotted pages storing variable-length tuples.
//
// Page layout (kPageSize bytes):
//   [0..4)   u32 next_page_id (kInvalidPageId at tail)
//   [4..6)   u16 slot_count
//   [6..8)   u16 free_end     (tuple bytes occupy [free_end, kPageSize))
//   [8..)    slot array: per slot {u16 offset, u16 size}; offset==0 marks a
//            deleted slot (tuple offsets are always >= header size, so 0 is
//            a safe sentinel).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pin_list.h"

namespace pse {

/// \brief Receives the live tuples of TableHeap::ScanTuples as bytes, in
/// heap order.
class TupleVisitor {
 public:
  /// One live tuple, at `rid`. `bytes` points into its pinned page and
  /// stays valid until the next PageDone(); an error ends the scan with it.
  virtual Status Tuple(Rid rid, const char* bytes, size_t size) = 0;
  /// The scan is about to unpin the page of every tuple since the last
  /// call: their bytes become invalid.
  virtual void PageDone() = 0;

 protected:
  ~TupleVisitor() = default;
};

/// \brief Unordered collection of rows for one table.
///
/// Rows are serialized with TupleCodec. Updates that no longer fit in place
/// are relocated (the returned Rid changes); callers owning indexes must
/// re-index in that case.
class TableHeap {
 public:
  /// Creates an empty heap (allocates the first page).
  static Result<TableHeap> Create(BufferPool* pool, const TableSchema* schema);
  /// Re-attaches to an existing heap.
  static TableHeap Attach(BufferPool* pool, const TableSchema* schema, PageId first_page,
                          PageId last_page, uint64_t num_pages = 0);

  /// What Append keeps between the rows of one batch.
  struct Tail {
    int32_t pin = PinList::kNone;  ///< handle of the last page, while held
    std::string bytes;             ///< the row being appended, serialized
  };

  /// \brief Appends a row to the last page: the one heap insert.
  ///
  /// Serializes into `tail->bytes`, which the batch reuses, and keeps the
  /// last page held in `pins` for the next row. A full last page is linked
  /// to a fresh one, which becomes the held tail; the old one is dropped.
  /// Fetches, allocates and dirties the pages the row-at-a-time insert
  /// does, in the same order (PinList).
  Result<Rid> Append(const Row& row, Tail* tail, PinList* pins);
  /// Appends one row, as a batch of one; returns its Rid.
  Result<Rid> Insert(const Row& row);
  /// Reads the row at `rid`. NotFound for deleted/invalid slots.
  Status Get(const Rid& rid, Row* out) const;
  /// Appends the serialized bytes of the row at `rid` to `out` — Get's page
  /// fetch without its decode. NotFound for deleted/invalid slots.
  Status CopyTuple(const Rid& rid, TupleBytes* out) const;
  /// Deletes the row at `rid`.
  Status Delete(const Rid& rid);
  /// \brief Replaces the row at `rid`; returns the (possibly new) Rid.
  ///
  /// A row that no longer fits its slot moves: the new bytes are appended
  /// and the old slot is deleted. When the append fails (a tuple larger than
  /// a page, a page that cannot be allocated or evicted), the old slot
  /// stays as it was and the error is returned.
  Result<Rid> Update(const Rid& rid, const Row& row);

  PageId first_page() const { return first_page_; }
  PageId last_page() const { return last_page_; }
  /// Pages currently in the heap chain.
  uint64_t NumPages() const { return num_pages_; }
  const TableSchema* schema() const { return schema_; }

  /// \brief Forward scan over live tuples.
  ///
  /// Usage:
  ///   PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, heap.Begin());
  ///   while (!it.AtEnd()) { use(it.row()); PSE_RETURN_NOT_OK(it.Next()); }
  /// Iteration pins one page at a time.
  class Iterator {
   public:
    /// An already-exhausted iterator (placeholder before assignment).
    Iterator() : at_end_(true) {}

    bool AtEnd() const { return at_end_; }
    /// Advances to the next live tuple.
    Status Next();
    const Row& row() const { return row_; }
    Rid rid() const { return rid_; }

    /// \brief Appends up to `max_rows` live tuples to `out`, advancing past
    /// them.
    ///
    /// Equivalent to repeating { out->push_back(row()); Next(); } but pins
    /// each heap page once instead of once per tuple — the migration copy
    /// loop's scan. Starts with the current tuple; afterwards the
    /// iterator is positioned on the first unconsumed tuple (or AtEnd()).
    /// Returns the number appended (0 at end of stream).
    Result<size_t> FillBatch(size_t max_rows, std::vector<Row>* out);

    /// \brief Copies up to `max_rows` live tuples' serialized bytes into
    /// `out`, advancing past them — the engine's scan.
    ///
    /// Fetches exactly the pages FillBatch would, in the same order (the
    /// current tuple's page first), but decodes none of the copied tuples:
    /// each tuple's bytes are copied while its page is pinned, and the
    /// caller decodes columns afterwards (TupleCodec::DeserializeColumns),
    /// for only the tuples it keeps. Returns the number of tuples copied
    /// (0 at end of stream).
    Result<size_t> FillTupleBytes(size_t max_rows, TupleBytes* out);

   private:
    friend class TableHeap;
    Iterator(const TableHeap* heap) : heap_(heap) {}
    /// Scans forward from the current position to the next live slot; the
    /// current slot itself counts when `include_current`.
    Status Advance(bool include_current);
    /// Makes the tuple at `rid` the current one, decoding it into row_.
    Status TakeCurrent(Rid rid, const char* bytes, size_t size);

    const TableHeap* heap_ = nullptr;
    bool at_end_ = false;
    Rid rid_;
    Row row_;
  };

  /// Iterator positioned at the first live tuple (AtEnd() on an empty heap).
  /// Fails with the page fetch's error when a page it reads cannot be read;
  /// later errors surface through Next().
  Result<Iterator> Begin() const;

  /// \brief Iterator positioned at the first live tuple whose packed rid is
  /// >= rid.Pack() (AtEnd() when there is none).
  ///
  /// Fetches `rid`'s page, then walks forward: one page fetch when the
  /// tuple at `rid` is live. Exact because page ids ascend along a heap
  /// chain — pages are only appended, and both disk managers allocate ids
  /// monotonically and never reuse them — and slots within a page ascend
  /// in insertion order. `rid.page_id` must be a page of this heap's chain;
  /// the slot may lie past that page's slot count. The migration copy loop
  /// re-positions at its journal frontier this way at every batch.
  Result<Iterator> Seek(const Rid& rid) const;

  /// \brief Hands every live tuple's bytes to `visitor`, page by page,
  /// while the page is pinned: one fetch per page of the chain, in the
  /// order an iterator visits them, and no decoding. ANALYZE's scan.
  Status ScanTuples(TupleVisitor* visitor) const;

  /// \brief Counts live tuples without deserializing them, defensively.
  ///
  /// Walks at most `max_pages` pages of the chain and validates every slot
  /// (offsets inside the page, tuple bytes in bounds) before trusting it.
  /// Returns Internal on any anomaly — a longer-than-expected chain, a
  /// malformed slot, an out-of-bounds tuple. Crash recovery uses this to
  /// decide whether an interrupted copy can continue from its journaled
  /// cursor or the destination must be rebuilt: pages flushed after the
  /// last checkpoint make the count (or the chain) disagree with the
  /// checkpointed catalog.
  Result<uint64_t> CountRowsBounded(uint64_t max_pages) const;

  /// \brief Clamps the page chain to its first `keep_pages` pages.
  ///
  /// Rewrites the next-pointer of the keep_pages-th page to end the chain
  /// there (pages beyond it are orphaned; page ids are never reused). Crash
  /// recovery uses this before dropping a heap whose chain grew past the
  /// checkpointed catalog — the un-checkpointed tail may contain a
  /// never-written (zeroed) page whose next-pointer cannot be trusted, so
  /// the regular drop walk must not cross into it.
  Status TruncateChain(uint64_t keep_pages);

 private:
  TableHeap(BufferPool* pool, const TableSchema* schema)
      : pool_(pool), schema_(schema) {}

  /// Appends `tail->bytes`, which fit a page (CheckFits).
  Result<Rid> AppendBytes(Tail* tail, PinList* pins);

  static uint16_t SlotCount(const char* page);
  static uint16_t FreeEnd(const char* page);
  static PageId NextPage(const char* page);

  /// \brief The one heap walk under every scan.
  ///
  /// From slot `slot` of page `pid` along the chain, calls
  /// `on_tuple(Rid, const char* bytes, size_t size)` for each live tuple
  /// while its page is pinned, fetching each page once, and
  /// `on_page_done()` after the last tuple of each page. `on_tuple`
  /// returns Result<bool>: false stops the walk at that tuple, an error
  /// fails it. Returns true when `on_tuple` stopped it, false when it
  /// reached the end of the chain.
  template <typename OnTuple, typename OnPageDone>
  Result<bool> Walk(PageId pid, uint32_t slot, OnTuple&& on_tuple,
                    OnPageDone&& on_page_done) const;

  BufferPool* pool_ = nullptr;
  const TableSchema* schema_ = nullptr;
  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  uint64_t num_pages_ = 0;
};

}  // namespace pse

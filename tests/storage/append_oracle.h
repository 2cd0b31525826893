// The row-at-a-time insert that Database::InsertBatch replaced, kept as the
// append path's oracle, and the checks that compare the two page for page:
// a table loads both ways into equal pools, and every heap and B+ tree
// page, every disk read and write, every pool miss and eviction, and the
// I/O of a scan run afterwards must agree. Used by storage_test's seeded
// tables (append_oracle_test.cc) and live_copy_test's root split.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/database.h"

namespace pse {
namespace testutil {

inline constexpr size_t kKeyColumns = 4;

/// How one BIGINT column's values are drawn, row by row.
struct KeyGen {
  enum Order { kAscending, kDescending, kRandom } order = kRandom;
  int64_t range = 1000000;  ///< random keys come from [0, range): small ranges repeat
  double null_share = 0.0;
};

/// One random table to load: keys k0..k3 (the first `indexes` indexed) and
/// a VARCHAR payload of up to `max_payload` characters.
struct Shape {
  size_t pool_pages = 16;
  size_t rows = 1000;
  size_t indexes = 2;
  size_t max_payload = 120;
  KeyGen keys[kKeyColumns];
};

inline TableSchema ShapeSchema() {
  std::vector<Column> cols;
  for (size_t c = 0; c < kKeyColumns; ++c) cols.emplace_back("k" + std::to_string(c), TypeId::kInt64);
  cols.emplace_back("payload", TypeId::kVarchar, 200);
  return TableSchema("t", cols);
}

inline std::vector<Row> ShapeRows(const Shape& shape, Rng* rng) {
  std::vector<Row> rows;
  rows.reserve(shape.rows);
  for (size_t r = 0; r < shape.rows; ++r) {
    Row row;
    for (const KeyGen& g : shape.keys) {
      if (rng->Bernoulli(g.null_share)) {
        row.push_back(Value::Null(TypeId::kInt64));
        continue;
      }
      const auto n = static_cast<int64_t>(shape.rows);
      const auto i = static_cast<int64_t>(r);
      switch (g.order) {
        case KeyGen::kAscending:
          row.push_back(Value::Int(i));
          break;
        case KeyGen::kDescending:
          row.push_back(Value::Int(n - i));
          break;
        case KeyGen::kRandom:
          row.push_back(Value::Int(rng->UniformInt(0, g.range - 1)));
          break;
      }
    }
    row.push_back(Value::Varchar(rng->AlphaString(rng->Index(shape.max_payload + 1))));
    rows.push_back(std::move(row));
  }
  return rows;
}

inline Shape RandomShape(size_t pool_pages, Rng* rng) {
  Shape shape;
  shape.pool_pages = pool_pages;
  shape.rows = 1000 + rng->Index(1500);
  shape.indexes = rng->Index(kKeyColumns + 1);
  shape.max_payload = rng->Bernoulli(0.5) ? 24 : 160;
  for (KeyGen& g : shape.keys) {
    g.order = static_cast<KeyGen::Order>(rng->Index(3));
    g.range = rng->Bernoulli(0.3) ? 20 : 1000000;  // duplicates
    g.null_share = rng->Bernoulli(0.4) ? rng->UniformDouble() * 0.6 : 0.0;
  }
  return shape;
}

/// One database with the shape's table, over a disk that can fail.
struct Side {
  explicit Side(const Shape& shape) {
    auto d = std::make_unique<FaultInjectionDiskManager>(std::make_unique<InMemoryDiskManager>());
    disk = d.get();
    db = std::make_unique<Database>(shape.pool_pages, std::move(d));
    EXPECT_TRUE(db->CreateTable(ShapeSchema(), /*auto_key_index=*/false).ok());
    for (size_t c = 0; c < shape.indexes; ++c) {
      EXPECT_TRUE(db->CreateIndex("t", "k" + std::to_string(c)).ok());
    }
    table = *db->GetTable("t");
  }

  FaultInjectionDiskManager* disk;
  std::unique_ptr<Database> db;
  TableInfo* table;
};

/// The row-at-a-time insert the append path replaced: the row into the
/// heap, then each non-NULL key into its index from the root.
inline Status RowLoopInsert(TableInfo* t, const Row& row) {
  PSE_ASSIGN_OR_RETURN(Rid rid, t->heap->Insert(row));
  for (const auto& idx : t->indexes) {
    const Value& v = row[idx->column_idx];
    if (!v.is_null()) PSE_RETURN_NOT_OK(idx->tree->Insert(v.AsInt(), rid));
  }
  ++t->row_count;
  return Status::OK();
}

/// Loads `rows` row by row; returns the first error, with `*loaded` rows
/// inserted in full before it.
inline Status LoadRowLoop(Side* side, const std::vector<Row>& rows, size_t* loaded) {
  *loaded = 0;
  for (const Row& row : rows) {
    PSE_RETURN_NOT_OK(RowLoopInsert(side->table, row));
    ++*loaded;
  }
  return Status::OK();
}

/// Loads `rows` through InsertBatch, in batches of random sizes (1 to 300).
inline Status LoadBatches(Side* side, const std::vector<Row>& rows, Rng* rng, size_t* loaded) {
  *loaded = 0;
  for (size_t begin = 0; begin < rows.size();) {
    const size_t n = std::min(rows.size() - begin, 1 + rng->Index(300));
    size_t appended = 0;
    Status s = side->db->InsertBatch(
        "t", std::span<const Row>(rows.data() + begin, n), &appended);
    *loaded += appended;
    PSE_RETURN_NOT_OK(s);
    begin += n;
  }
  return Status::OK();
}

struct Io {
  uint64_t reads, writes, allocated, misses, evictions, writebacks;
};

inline Io IoOf(const Side& side) {
  const IoStats& d = side.disk->stats();
  const BufferPoolStats& p = side.db->pool()->stats();
  return Io{d.page_reads.load(), d.page_writes.load(), d.pages_allocated.load(),
            p.misses.load(), p.evictions.load(), p.dirty_writebacks.load()};
}

inline void ExpectSameIo(const Io& a, const Io& b, const char* what) {
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.allocated, b.allocated) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

/// The heap's and every index's shape: counts, extents, roots and heights.
inline void ExpectSameTable(const Side& a, const Side& b) {
  const TableInfo& ta = *a.table;
  const TableInfo& tb = *b.table;
  EXPECT_EQ(ta.row_count, tb.row_count);
  EXPECT_EQ(ta.heap->first_page(), tb.heap->first_page());
  EXPECT_EQ(ta.heap->last_page(), tb.heap->last_page());
  EXPECT_EQ(ta.heap->NumPages(), tb.heap->NumPages());
  ASSERT_EQ(ta.indexes.size(), tb.indexes.size());
  for (size_t i = 0; i < ta.indexes.size(); ++i) {
    const BPlusTree& x = *ta.indexes[i]->tree;
    const BPlusTree& y = *tb.indexes[i]->tree;
    EXPECT_EQ(x.root(), y.root()) << "index " << i;
    EXPECT_EQ(x.height(), y.height()) << "index " << i;
    EXPECT_EQ(x.num_entries(), y.num_entries()) << "index " << i;
  }
}

/// Flushes both pools and compares every page on disk, byte for byte. The
/// flush's writes are not part of the comparison.
inline void ExpectSamePages(Side* a, Side* b) {
  ASSERT_TRUE(a->db->pool()->FlushAll().ok());
  ASSERT_TRUE(b->db->pool()->FlushAll().ok());
  const uint64_t n = a->disk->NumAllocatedPages();
  ASSERT_EQ(n, b->disk->NumAllocatedPages());
  std::vector<char> pa(kPageSize), pb(kPageSize);
  size_t differing = 0;
  for (PageId pid = 0; pid < n; ++pid) {
    ASSERT_TRUE(a->disk->inner()->ReadPage(pid, pa.data()).ok());
    ASSERT_TRUE(b->disk->inner()->ReadPage(pid, pb.data()).ok());
    if (std::memcmp(pa.data(), pb.data(), kPageSize) != 0) {
      ADD_FAILURE() << "page " << pid << " differs";
      if (++differing == 5) return;
    }
  }
}

/// Collects the rids of a heap scan.
class RidScan final : public TupleVisitor {
 public:
  explicit RidScan(std::vector<Rid>* rids) : rids_(rids) {}
  Status Tuple(Rid rid, const char*, size_t) override {
    rids_->push_back(rid);
    return Status::OK();
  }
  void PageDone() override {}

 private:
  std::vector<Rid>* rids_;
};

/// A scan of the heap and of every index: its I/O must agree, so the two
/// pools were left holding the same pages in the same LRU order.
inline void ExpectSameScan(Side* a, Side* b) {
  auto scan = [](Side* s, std::vector<Rid>* rids) {
    rids->clear();
    RidScan heap_scan(rids);
    PSE_RETURN_NOT_OK(s->table->heap->ScanTuples(&heap_scan));
    for (const auto& idx : s->table->indexes) {
      PSE_RETURN_NOT_OK(idx->tree->ScanRange(INT64_MIN, INT64_MAX, rids));
    }
    return Status::OK();
  };
  const Io a0 = IoOf(*a), b0 = IoOf(*b);
  std::vector<Rid> ra, rb;
  ASSERT_TRUE(scan(a, &ra).ok());
  ASSERT_TRUE(scan(b, &rb).ok());
  EXPECT_EQ(ra, rb);
  const Io a1 = IoOf(*a), b1 = IoOf(*b);
  ExpectSameIo(Io{a1.reads - a0.reads, a1.writes - a0.writes, 0, a1.misses - a0.misses,
                  a1.evictions - a0.evictions, a1.writebacks - a0.writebacks},
               Io{b1.reads - b0.reads, b1.writes - b0.writes, 0, b1.misses - b0.misses,
                  b1.evictions - b0.evictions, b1.writebacks - b0.writebacks},
               "scan after the load");
}

/// Loads `shape` both ways and compares everything. `*tallest`, when
/// given, receives the height of the tallest index.
inline void CheckShape(const Shape& shape, uint64_t seed, uint32_t* tallest = nullptr) {
  Rng data_rng(seed);
  const std::vector<Row> rows = ShapeRows(shape, &data_rng);
  Side loop(shape), batch(shape);
  ExpectSameIo(IoOf(loop), IoOf(batch), "create");
  size_t loop_rows = 0, batch_rows = 0;
  Rng batch_rng(seed + 1);
  ASSERT_TRUE(LoadRowLoop(&loop, rows, &loop_rows).ok());
  ASSERT_TRUE(LoadBatches(&batch, rows, &batch_rng, &batch_rows).ok());
  EXPECT_EQ(loop_rows, rows.size());
  EXPECT_EQ(batch_rows, rows.size());
  ExpectSameIo(IoOf(loop), IoOf(batch), "load");
  ExpectSameTable(loop, batch);
  ExpectSameScan(&loop, &batch);
  ExpectSamePages(&loop, &batch);
  for (const auto& idx : batch.table->indexes) {
    auto n = idx->tree->CheckInvariants();
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, idx->tree->num_entries());
    if (tallest != nullptr) *tallest = std::max(*tallest, idx->tree->height());
  }
}

}  // namespace testutil
}  // namespace pse

#include "storage/table_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/rng.h"

namespace pse {
namespace {

class TableHeapTest : public ::testing::Test {
 protected:
  TableHeapTest()
      : pool_(&dm_, 64),
        schema_("t", {Column("id", TypeId::kInt64), Column("payload", TypeId::kVarchar, 32)}) {}

  InMemoryDiskManager dm_;
  BufferPool pool_;
  TableSchema schema_;
};

TEST_F(TableHeapTest, InsertAndGet) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto rid = heap->Insert({Value::Int(1), Value::Varchar("hello")});
  ASSERT_TRUE(rid.ok());
  Row out;
  ASSERT_TRUE(heap->Get(*rid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 1);
  EXPECT_EQ(out[1].AsString(), "hello");
}

TEST_F(TableHeapTest, GetMissingRid) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  Row out;
  EXPECT_FALSE(heap->Get(Rid{heap->first_page(), 3}, &out).ok());
}

TEST_F(TableHeapTest, DeleteHidesTuple) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto rid = heap->Insert({Value::Int(1), Value::Varchar("x")});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap->Delete(*rid).ok());
  Row out;
  EXPECT_FALSE(heap->Get(*rid, &out).ok());
  EXPECT_FALSE(heap->Delete(*rid).ok());  // double delete
}

TEST_F(TableHeapTest, UpdateInPlaceKeepsRid) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto rid = heap->Insert({Value::Int(1), Value::Varchar("longpayload")});
  ASSERT_TRUE(rid.ok());
  auto nrid = heap->Update(*rid, {Value::Int(2), Value::Varchar("short")});
  ASSERT_TRUE(nrid.ok());
  EXPECT_EQ(nrid->page_id, rid->page_id);
  EXPECT_EQ(nrid->slot, rid->slot);
  Row out;
  ASSERT_TRUE(heap->Get(*nrid, &out).ok());
  EXPECT_EQ(out[0].AsInt(), 2);
}

TEST_F(TableHeapTest, UpdateGrowingRelocates) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto rid = heap->Insert({Value::Int(1), Value::Varchar("s")});
  ASSERT_TRUE(rid.ok());
  auto nrid = heap->Update(*rid, {Value::Int(1), Value::Varchar(std::string(100, 'z'))});
  ASSERT_TRUE(nrid.ok());
  Row out;
  ASSERT_TRUE(heap->Get(*nrid, &out).ok());
  EXPECT_EQ(out[1].AsString().size(), 100u);
  // Old rid must now be a deleted slot.
  EXPECT_FALSE(heap->Get(*rid, &out).ok());
}

TEST_F(TableHeapTest, SpillsAcrossPages) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  const int kRows = 2000;  // ~48 bytes each -> several pages
  for (int i = 0; i < kRows; ++i) {
    auto rid = heap->Insert({Value::Int(i), Value::Varchar("row-" + std::to_string(i))});
    ASSERT_TRUE(rid.ok());
  }
  EXPECT_GT(heap->NumPages(), 5u);
  // Scan sees every row exactly once, in insertion order per page chain.
  int count = 0;
  auto it = heap->Begin();
  ASSERT_TRUE(it.ok());
  while (!it->AtEnd()) {
    EXPECT_EQ(it->row()[0].AsInt(), count);
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, kRows);
}

TEST_F(TableHeapTest, ScanSkipsDeleted) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) {
    auto rid = heap->Insert({Value::Int(i), Value::Varchar("v")});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (int i = 0; i < 10; i += 2) ASSERT_TRUE(heap->Delete(rids[i]).ok());
  std::vector<int64_t> seen;
  auto it = heap->Begin();
  ASSERT_TRUE(it.ok());
  while (!it->AtEnd()) {
    seen.push_back(it->row()[0].AsInt());
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

TEST_F(TableHeapTest, EmptyHeapScan) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto it = heap->Begin();
  ASSERT_TRUE(it.ok());
  EXPECT_TRUE(it->AtEnd());
}

TEST_F(TableHeapTest, OversizeTupleRejected) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  Row huge{Value::Int(1), Value::Varchar(std::string(kPageSize, 'x'))};
  EXPECT_FALSE(heap->Insert(huge).ok());
}

// Property test: a randomized workload of inserts/deletes/updates matches a
// reference std::unordered_map model.
class TableHeapProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableHeapProperty, MatchesReferenceModel) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 128);
  TableSchema schema("t", {Column("id", TypeId::kInt64), Column("v", TypeId::kVarchar, 24)});
  auto heap = TableHeap::Create(&pool, &schema);
  ASSERT_TRUE(heap.ok());
  Rng rng(GetParam());
  std::unordered_map<uint64_t, std::pair<int64_t, std::string>> model;  // packed rid -> value
  for (int step = 0; step < 3000; ++step) {
    double roll = rng.UniformDouble();
    if (roll < 0.6 || model.empty()) {
      int64_t id = rng.UniformInt(0, 1000000);
      std::string payload = rng.AlphaString(rng.Index(40));
      auto rid = heap->Insert({Value::Int(id), Value::Varchar(payload)});
      ASSERT_TRUE(rid.ok());
      model[rid->Pack()] = {id, payload};
    } else if (roll < 0.8) {
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      ASSERT_TRUE(heap->Delete(Rid::Unpack(it->first)).ok());
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      int64_t id = rng.UniformInt(0, 1000000);
      std::string payload = rng.AlphaString(rng.Index(60));
      auto nrid = heap->Update(Rid::Unpack(it->first), {Value::Int(id), Value::Varchar(payload)});
      ASSERT_TRUE(nrid.ok());
      model.erase(it);
      model[nrid->Pack()] = {id, payload};
    }
  }
  // Verify via point reads and full scan.
  size_t scanned = 0;
  auto it = heap->Begin();
  ASSERT_TRUE(it.ok());
  while (!it->AtEnd()) {
    auto found = model.find(it->rid().Pack());
    ASSERT_NE(found, model.end());
    EXPECT_EQ(it->row()[0].AsInt(), found->second.first);
    EXPECT_EQ(it->row()[1].AsString(), found->second.second);
    ++scanned;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(scanned, model.size());
}

// The engine's scan (FillTupleBytes, then TupleCodec::DeserializeColumns
// on the copied bytes) must decode exactly what the copy loop's full-row
// scan (FillBatch) decodes, projected onto the wanted columns — across
// batch boundaries in the middle of pages, over deleted slots, NULLs of
// every type, and 300-character varchars — and must fetch the same pages
// the same number of times.
TEST_P(TableHeapProperty, FillTupleBytesMatchesProjectedFillBatch) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 128);
  TableSchema schema("w", {Column("id", TypeId::kInt64),
                           Column("v", TypeId::kVarchar, 300),
                           Column("flag", TypeId::kBoolean), Column("x", TypeId::kDouble),
                           Column("w", TypeId::kVarchar, 300)});
  auto heap = TableHeap::Create(&pool, &schema);
  ASSERT_TRUE(heap.ok());
  Rng rng(GetParam() + 1000);
  auto maybe_null = [&rng](TypeId type, Value v) {
    return rng.Bernoulli(0.15) ? Value::Null(type) : std::move(v);
  };
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 600; ++i) {
    Row row{maybe_null(TypeId::kInt64, Value::Int(i)),
            maybe_null(TypeId::kVarchar, Value::Varchar(rng.AlphaString(rng.Index(301)))),
            maybe_null(TypeId::kBoolean, Value::Bool(rng.Bernoulli(0.5))),
            maybe_null(TypeId::kDouble, Value::Double(static_cast<double>(i) / 8.0)),
            maybe_null(TypeId::kVarchar, Value::Varchar(rng.AlphaString(300)))};
    auto rid = heap->Insert(row);
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(*rid);
  }
  for (const Rid& rid : rids) {
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(heap->Delete(rid).ok());
    }
  }
  ASSERT_GT(heap->NumPages(), 20u);
  auto page_fetches = [&pool] { return pool.stats().hits + pool.stats().misses; };

  const size_t width = schema.num_columns();
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<size_t> wanted;
    for (size_t c = 0; c < width; ++c) {
      if (rng.Bernoulli(0.5)) wanted.push_back(c);
    }
    // Most sizes end batches mid-page (a page holds a handful of rows).
    const size_t batch_rows = 1 + rng.Index(300);

    std::vector<Row> full;
    const uint64_t full_start = page_fetches();
    auto it = heap->Begin();
    ASSERT_TRUE(it.ok());
    while (true) {
      auto n = it->FillBatch(batch_rows, &full);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (*n == 0) break;
    }
    const uint64_t full_fetches = page_fetches() - full_start;

    std::vector<std::vector<Value>> cols(wanted.size());
    std::vector<std::vector<Value>*> col_ptrs;
    for (auto& c : cols) col_ptrs.push_back(&c);
    size_t consumed = 0;
    TupleBytes tuples;
    const uint64_t bytes_start = page_fetches();
    auto bit = heap->Begin();
    ASSERT_TRUE(bit.ok());
    while (true) {
      tuples.Clear();
      auto n = bit->FillTupleBytes(batch_rows, &tuples);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (*n == 0) break;
      ASSERT_LE(*n, batch_rows);
      ASSERT_EQ(tuples.size(), *n);
      consumed += *n;
      for (size_t t = 0; t < tuples.size(); ++t) {
        ASSERT_TRUE(TupleCodec::DeserializeColumns(schema, tuples.tuple(t),
                                                   tuples.tuple_size(t), wanted, col_ptrs)
                        .ok());
      }
      for (const auto& c : cols) ASSERT_EQ(c.size(), consumed);
    }
    EXPECT_EQ(page_fetches() - bytes_start, full_fetches) << "batch " << batch_rows;

    ASSERT_EQ(consumed, full.size()) << "batch " << batch_rows;
    for (size_t r = 0; r < full.size(); ++r) {
      for (size_t k = 0; k < wanted.size(); ++k) {
        const Value& want = full[r][wanted[k]];
        const Value& got = cols[k][r];
        ASSERT_EQ(got.is_null(), want.is_null()) << "row " << r << " col " << wanted[k];
        ASSERT_EQ(got.type(), want.type()) << "row " << r << " col " << wanted[k];
        ASSERT_EQ(got.Compare(want), 0)
            << "row " << r << " col " << wanted[k] << ": " << got.ToString() << " vs "
            << want.ToString();
      }
    }
  }
}

// Seek(r) yields exactly what Begin() yields after skipping every tuple
// whose packed rid is below r's — for targets on live tuples, on deleted and
// relocated-away slots, past a page's last slot, and past the end of the
// last page — and fetches one page when the tuple at r is live. Linear in
// the heap: one walk from Begin(), and each seek walked up to the next.
TEST_P(TableHeapProperty, SeekMatchesBeginAndSkip) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 128);
  TableSchema schema("t", {Column("id", TypeId::kInt64), Column("v", TypeId::kVarchar, 300)});
  auto heap = TableHeap::Create(&pool, &schema);
  ASSERT_TRUE(heap.ok());
  Rng rng(GetParam() + 2000);
  std::vector<Rid> live;
  std::vector<Rid> dead;
  std::map<PageId, uint16_t> slots;  // page -> slots it has handed out
  auto note = [&slots](const Rid& rid) {
    slots[rid.page_id] = std::max<uint16_t>(slots[rid.page_id], rid.slot + 1);
  };
  for (int step = 0; step < 700; ++step) {
    const double roll = rng.UniformDouble();
    if (roll < 0.6 || live.empty()) {
      auto rid = heap->Insert({Value::Int(step), Value::Varchar(rng.AlphaString(rng.Index(200)))});
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      note(*rid);
      live.push_back(*rid);
      continue;
    }
    const size_t victim = rng.Index(live.size());
    const Rid old = live[victim];
    live[victim] = live.back();
    live.pop_back();
    if (roll < 0.8) {
      ASSERT_TRUE(heap->Delete(old).ok());
      dead.push_back(old);
      continue;
    }
    // Up to 300 characters: often no longer fits in place and relocates.
    auto rid =
        heap->Update(old, {Value::Int(step), Value::Varchar(rng.AlphaString(rng.Index(301)))});
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    note(*rid);
    live.push_back(*rid);
    if (!(*rid == old)) dead.push_back(old);
  }
  ASSERT_GT(heap->NumPages(), 5u);
  ASSERT_FALSE(dead.empty());

  std::vector<Rid> targets = live;
  targets.insert(targets.end(), dead.begin(), dead.end());
  for (const auto& [page, count] : slots) targets.push_back(Rid{page, count});
  targets.push_back(Rid{heap->last_page(), UINT16_MAX});
  std::sort(targets.begin(), targets.end());

  // One walk from Begin(): every seek's expected tuples are a suffix of it.
  std::vector<std::pair<Rid, Row>> walk;
  {
    auto it = heap->Begin();
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    while (!it->AtEnd()) {
      walk.emplace_back(it->rid(), it->row());
      ASSERT_TRUE(it->Next().ok());
    }
  }
  auto suffix_of = [&walk](const Rid& target) {
    return static_cast<size_t>(
        std::lower_bound(walk.begin(), walk.end(), target.Pack(),
                         [](const std::pair<Rid, Row>& t, uint64_t packed) {
                           return t.first.Pack() < packed;
                         }) -
        walk.begin());
  };

  auto page_fetches = [&pool] { return pool.stats().hits + pool.stats().misses; };
  std::sort(live.begin(), live.end());
  for (size_t k = 0; k < targets.size(); ++k) {
    const Rid& target = targets[k];
    SCOPED_TRACE(::testing::Message() << "seek (" << target.page_id << "," << target.slot << ")");
    const size_t begin = suffix_of(target);

    const uint64_t before = page_fetches();
    auto sought = heap->Seek(target);
    ASSERT_TRUE(sought.ok()) << sought.status().ToString();
    const uint64_t fetched = page_fetches() - before;
    if (std::binary_search(live.begin(), live.end(), target)) {
      EXPECT_EQ(fetched, 1u);
      ASSERT_FALSE(sought->AtEnd());
      EXPECT_EQ(sought->rid(), target);
    }

    // The sought iterator must yield walk[begin, end). It is walked only up
    // to the next target's suffix: an iterator's remaining tuples follow
    // from its position alone, and the next target's seek, checked to land
    // on walk[end], checks them from there. The last target is walked to
    // the end.
    const size_t end = k + 1 < targets.size() ? suffix_of(targets[k + 1]) : walk.size();
    for (size_t i = begin; i < end; ++i) {
      ASSERT_FALSE(sought->AtEnd()) << "tuple " << i - begin;
      ASSERT_EQ(sought->rid(), walk[i].first) << "tuple " << i - begin;
      ASSERT_EQ(RowToString(sought->row()), RowToString(walk[i].second)) << "tuple " << i - begin;
      ASSERT_TRUE(sought->Next().ok());
    }
    if (end == walk.size()) {
      EXPECT_TRUE(sought->AtEnd());
    } else {
      ASSERT_FALSE(sought->AtEnd());
      EXPECT_EQ(sought->rid(), walk[end].first);
    }
  }
}

// CopyTuple hands over the bytes Get decodes, and fails alike on a deleted
// or out-of-range slot.
TEST_F(TableHeapTest, CopyTupleMatchesGet) {
  auto heap = TableHeap::Create(&pool_, &schema_);
  ASSERT_TRUE(heap.ok());
  auto kept = heap->Insert({Value::Int(1), Value::Varchar("kept")});
  auto gone = heap->Insert({Value::Int(2), Value::Null(TypeId::kVarchar)});
  ASSERT_TRUE(kept.ok() && gone.ok());
  ASSERT_TRUE(heap->Delete(*gone).ok());
  TupleBytes tuples;
  ASSERT_TRUE(heap->CopyTuple(*kept, &tuples).ok());
  ASSERT_EQ(tuples.size(), 1u);
  Row row;
  ASSERT_TRUE(
      TupleCodec::Deserialize(schema_, tuples.tuple(0), tuples.tuple_size(0), &row).ok());
  EXPECT_EQ(RowToString(row), "(1, kept)");
  EXPECT_TRUE(heap->CopyTuple(*gone, &tuples).IsNotFound());
  EXPECT_TRUE(heap->CopyTuple(Rid{heap->first_page(), 9}, &tuples).IsNotFound());
  EXPECT_EQ(tuples.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableHeapProperty, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace pse

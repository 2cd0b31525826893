#include "storage/database.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/lock_registry.h"
#include "common/row_index_table.h"
#include "common/string_util.h"

namespace pse {

namespace {

/// \brief ANALYZE's scan: statistics straight from the encoded tuples.
///
/// Per column, the NULLs (from the null bitmap), the distinct Value::Hash
/// values (hashed from the column's bytes through Value's per-type hash
/// parts, counted exactly: MixHash is a bijection), and the minimum and
/// maximum as typed scalars. A VARCHAR extreme is a view into its pinned
/// page until PageDone copies it out. Values are built only by Finish.
class AnalyzeScan final : public TupleVisitor {
 public:
  /// `expected_rows` sizes the distinct-value tables.
  AnalyzeScan(const TableSchema& schema, uint64_t expected_rows) : cols_(schema.num_columns()) {
    for (size_t i = 0; i < cols_.size(); ++i) {
      Column& c = cols_[i];
      c.type = schema.column(i).type;
      // A BOOLEAN has two hashes at most.
      c.distinct.Reserve(c.type == TypeId::kBoolean ? 2 : expected_rows);
      if (c.type == TypeId::kVarchar) varchars_.push_back(i);
    }
  }

  Status Tuple(Rid, const char* bytes, size_t size) override {
    ++rows_;
    width_sum_ += static_cast<double>(size);
    TupleCursor cur(bytes, size, cols_.size());
    PSE_RETURN_NOT_OK(cur.Open());
    for (size_t i = 0; i < cols_.size(); ++i) {
      Column& c = cols_[i];
      if (cur.IsNull(i)) {
        ++c.nulls;
        continue;
      }
      switch (c.type) {
        case TypeId::kBoolean: {
          bool b = false;
          if (!cur.ReadBool(&b)) return cur.Error();
          AddInt(&c, b ? 1 : 0);
          break;
        }
        case TypeId::kInt64: {
          int64_t v = 0;
          if (!cur.ReadInt(&v)) return cur.Error();
          AddInt(&c, v);
          break;
        }
        case TypeId::kDouble: {
          double d = 0;
          if (!cur.ReadDouble(&d)) return cur.Error();
          // `<` and `>` order doubles as Value::Compare does: a NaN is
          // neither, so it stays an extreme only when it came first, and
          // of 0.0 and -0.0 the first seen stays.
          if (!c.seen || d < c.dbl_min) c.dbl_min = d;
          if (!c.seen || d > c.dbl_max) c.dbl_max = d;
          Count(&c, Value::HashDouble(d));
          break;
        }
        case TypeId::kVarchar: {
          std::string_view v;
          if (!cur.ReadVarchar(&v)) return cur.Error();
          if (!c.seen || v < c.str_min) {
            c.str_min = v;
            c.min_in_page = true;
          }
          if (!c.seen || v > c.str_max) {
            c.str_max = v;
            c.max_in_page = true;
          }
          Count(&c, Value::HashString(v));
          break;
        }
      }
    }
    return Status::OK();
  }

  void PageDone() override {
    for (size_t i : varchars_) {
      Column& c = cols_[i];
      if (c.min_in_page) {
        c.min_copy.assign(c.str_min);
        c.str_min = c.min_copy;
        c.min_in_page = false;
      }
      if (c.max_in_page) {
        c.max_copy.assign(c.str_max);
        c.str_max = c.max_copy;
        c.max_in_page = false;
      }
    }
  }

  /// The statistics of a heap of `page_count` pages, once the scan is done.
  TableStatistics Finish(const TableSchema& schema, uint64_t page_count) const {
    TableStatistics stats;
    stats.row_count = rows_;
    stats.page_count = page_count;
    stats.avg_tuple_width = rows_ > 0 ? width_sum_ / static_cast<double>(rows_) : 0.0;
    for (size_t i = 0; i < cols_.size(); ++i) {
      const Column& c = cols_[i];
      ColumnStatistics& out = stats.columns[schema.column(i).name];
      out.num_distinct = c.distinct.size();
      out.null_count = c.nulls;
      if (!c.seen) continue;
      switch (c.type) {
        case TypeId::kBoolean:
          out.min = Value::Bool(c.int_min != 0);
          out.max = Value::Bool(c.int_max != 0);
          break;
        case TypeId::kInt64:
          out.min = Value::Int(c.int_min);
          out.max = Value::Int(c.int_max);
          break;
        case TypeId::kDouble:
          out.min = Value::Double(c.dbl_min);
          out.max = Value::Double(c.dbl_max);
          break;
        case TypeId::kVarchar:
          out.min = Value::Varchar(std::string(c.str_min));
          out.max = Value::Varchar(std::string(c.str_max));
          break;
      }
    }
    return stats;
  }

 private:
  struct Column {
    TypeId type = TypeId::kInt64;
    uint64_t nulls = 0;
    bool seen = false;  ///< a non-NULL value was read
    int64_t int_min = 0, int_max = 0;  ///< BIGINT, and BOOLEAN as 0/1
    double dbl_min = 0, dbl_max = 0;
    std::string_view str_min, str_max;
    bool min_in_page = false, max_in_page = false;  ///< views into the pinned page
    std::string min_copy, max_copy;  ///< what the views point to otherwise
    RowIndexTable distinct;
  };

  /// Counts hash `h` in column `c`'s distinct set and marks `c` seen.
  static void Count(Column* c, size_t h) {
    bool inserted = false;
    c->distinct.FindOrInsert(MixHash(h), [](uint32_t) { return true; }, &inserted);
    c->seen = true;
  }

  static void AddInt(Column* c, int64_t v) {
    if (!c->seen || v < c->int_min) c->int_min = v;
    if (!c->seen || v > c->int_max) c->int_max = v;
    Count(c, Value::HashInt(v));
  }

  std::vector<Column> cols_;     ///< sized once: the views may point into it
  std::vector<size_t> varchars_; ///< positions of the VARCHAR columns
  uint64_t rows_ = 0;
  double width_sum_ = 0;
};

/// \brief The one insert path: rows appended to one table, its heap and
/// every index, through one PinList.
///
/// The heap's tail and each index's path stay pinned from row to row; the
/// list releases them when they are done with and, at the latest, when the
/// appender goes (DESIGN.md §20). The caller holds the table's exclusive
/// latch.
class TableAppender {
 public:
  TableAppender(const BufferPool& pool, TableInfo* t)
      : t_(t), cursors_(t->indexes.size()), pins_(PinList::Budget(pool)) {}

  /// Appends `row` to the heap and its keys to the indexes; counts the row
  /// once all of it is in.
  Result<Rid> Append(const Row& row) {
    PSE_ASSIGN_OR_RETURN(Rid rid, t_->heap->Append(row, &tail_, &pins_));
    PSE_RETURN_NOT_OK(AppendKeys(row, rid));
    ++t_->row_count;
    t_->stats_valid = false;
    pins_.ReleaseDropped();
    return rid;
  }

  /// Inserts `row`'s non-NULL keys, stored at `rid`, into every index.
  Status AppendKeys(const Row& row, Rid rid) {
    for (size_t i = 0; i < t_->indexes.size(); ++i) {
      const IndexInfo& idx = *t_->indexes[i];
      const Value& v = row[idx.column_idx];
      if (!v.is_null()) PSE_RETURN_NOT_OK(idx.tree->Append(v.AsInt(), rid, &cursors_[i], &pins_));
    }
    return Status::OK();
  }

 private:
  TableInfo* t_;
  TableHeap::Tail tail_;
  std::vector<BPlusTree::Cursor> cursors_;  ///< one per index
  PinList pins_;  ///< last: it releases its pages before the owners go
};

/// \brief An index backfill's scan: each live row's key, read from its
/// bytes, goes into the tree through the tree's cursor.
class KeyBackfill final : public TupleVisitor {
 public:
  KeyBackfill(const TableSchema& schema, size_t column, BPlusTree* tree, const BufferPool& pool)
      : schema_(schema), wanted_{column}, cols_{&key_}, tree_(tree), pins_(PinList::Budget(pool)) {}

  Status Tuple(Rid rid, const char* bytes, size_t size) override {
    key_.clear();
    PSE_RETURN_NOT_OK(TupleCodec::DeserializeColumns(schema_, bytes, size, wanted_, cols_));
    if (key_[0].is_null()) return Status::OK();
    return tree_->Append(key_[0].AsInt(), rid, &cursor_, &pins_);
  }
  void PageDone() override {}

 private:
  const TableSchema& schema_;
  std::vector<size_t> wanted_;
  std::vector<Value> key_;
  std::vector<std::vector<Value>*> cols_;
  BPlusTree* tree_;
  BPlusTree::Cursor cursor_;
  PinList pins_;  ///< last: it releases its pages before the cursor goes
};

}  // namespace

bool TableNameLess::operator()(std::string_view a, std::string_view b) const {
  // ASCII folding, as ToLower does in the C locale.
  auto fold = [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u + ('a' - 'A')) : u;
  };
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const unsigned char ca = fold(a[i]);
    const unsigned char cb = fold(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

const IndexInfo* TableInfo::FindIndex(const std::string& column) const {
  for (const auto& idx : indexes) {
    if (EqualsIgnoreCase(idx->column, column)) return idx.get();
  }
  return nullptr;
}

Database::Database(size_t pool_pages, std::unique_ptr<DiskManager> disk)
    : disk_(disk ? std::move(disk) : std::make_unique<InMemoryDiskManager>()),
      pool_(std::make_unique<BufferPool>(disk_.get(), pool_pages)) {
  // The catalog latch legitimately covers page I/O: quiesce windows
  // checkpoint and scans fault pages while holding it.
  schema_latch_.LockdepRegister("catalog", kLockRankCatalog, /*allows_io=*/true);
}

Status Database::CreateTable(const TableSchema& schema, bool auto_key_index) {
  std::string key = ToLower(schema.name());
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table '" + schema.name() + "' already exists");
  }
  auto info = std::make_unique<TableInfo>();
  // Lock classes are per-name: dropping and recreating a table maps back to
  // the same class, so ordering history survives schema churn.
  info->latch.LockdepRegister("table:" + key, kLockRankTable, /*allows_io=*/true);
  info->schema = std::make_unique<TableSchema>(schema);
  PSE_ASSIGN_OR_RETURN(TableHeap heap, TableHeap::Create(pool_.get(), info->schema.get()));
  info->heap = std::make_unique<TableHeap>(std::move(heap));
  tables_[key] = std::move(info);
  if (auto_key_index && !schema.key_columns().empty()) {
    auto idx_res = schema.ColumnIndex(schema.key_columns()[0]);
    if (idx_res.ok() && schema.column(*idx_res).type == TypeId::kInt64) {
      PSE_RETURN_NOT_OK(CreateIndex(schema.name(), schema.key_columns()[0]));
    }
  }
  return Status::OK();
}

Status Database::DropTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) + "' does not exist");
  }
  // Free the heap chain.
  PageId pid = it->second->heap->first_page();
  while (pid != kInvalidPageId) {
    PageId next;
    {
      PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
      uint32_t v;
      std::memcpy(&v, g.data(), 4);
      next = v;
    }
    PSE_RETURN_NOT_OK(pool_->DeletePage(pid));
    pid = next;
  }
  tables_.erase(it);
  return Status::OK();
}

bool Database::HasTable(std::string_view name) const { return tables_.count(name) != 0; }

Result<TableInfo*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) + "' does not exist");
  }
  return it->second.get();
}

Result<const TableInfo*> Database::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) + "' does not exist");
  }
  return static_cast<const TableInfo*>(it->second.get());
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, info] : tables_) out.push_back(info->schema->name());
  return out;
}

Status Database::CreateIndex(const std::string& table, const std::string& column) {
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  PSE_ASSIGN_OR_RETURN(size_t col_idx, t->schema->ColumnIndex(column));
  if (t->schema->column(col_idx).type != TypeId::kInt64) {
    return Status::InvalidArgument("index column '" + column + "' must be BIGINT");
  }
  if (t->FindIndex(column) != nullptr) {
    return Status::AlreadyExists("index on '" + table + "." + column + "' already exists");
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = table + "_" + column + "_idx";
  idx->column = column;
  idx->column_idx = col_idx;
  PSE_ASSIGN_OR_RETURN(idx->tree, BuildIndexTree(*t, col_idx));
  t->indexes.push_back(std::move(idx));
  return Status::OK();
}

Status Database::RebuildIndexes(const std::string& table) {
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  for (auto& idx : t->indexes) {
    // Old tree pages are orphaned rather than freed: page ids are never
    // reused (DiskManager policy), and after a crash the old tree cannot be
    // walked safely to enumerate them.
    PSE_ASSIGN_OR_RETURN(idx->tree, BuildIndexTree(*t, idx->column_idx));
  }
  return Status::OK();
}

Result<std::unique_ptr<BPlusTree>> Database::BuildIndexTree(const TableInfo& t, size_t column) {
  PSE_ASSIGN_OR_RETURN(BPlusTree created, BPlusTree::Create(pool_.get()));
  auto tree = std::make_unique<BPlusTree>(std::move(created));
  KeyBackfill scan(*t.schema, column, tree.get(), *pool_);
  PSE_RETURN_NOT_OK(t.heap->ScanTuples(&scan));
  return tree;
}

Status Database::MaintainIndexesDelete(TableInfo* t, const Row& row, Rid rid) {
  for (auto& idx : t->indexes) {
    const Value& v = row[idx->column_idx];
    if (!v.is_null()) PSE_RETURN_NOT_OK(idx->tree->Delete(v.AsInt(), rid));
  }
  return Status::OK();
}

Status Database::InsertBatch(std::string_view table, std::span<const Row> rows,
                             size_t* appended) {
  PSE_LOCKDEP_SCOPE("Database::InsertBatch");
  if (appended != nullptr) *appended = 0;
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  TableAppender appender(*pool_, t);
  for (const Row& row : rows) {
    PSE_RETURN_NOT_OK(appender.Append(row).status());
    if (appended != nullptr) ++*appended;
  }
  return Status::OK();
}

Result<Rid> Database::Insert(std::string_view table, const Row& row) {
  PSE_LOCKDEP_SCOPE("Database::Insert");
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  TableAppender appender(*pool_, t);
  return appender.Append(row);
}

Status Database::Delete(std::string_view table, const Rid& rid) {
  PSE_LOCKDEP_SCOPE("Database::Delete");
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  Row old_row;
  PSE_RETURN_NOT_OK(t->heap->Get(rid, &old_row));
  PSE_RETURN_NOT_OK(t->heap->Delete(rid));
  PSE_RETURN_NOT_OK(MaintainIndexesDelete(t, old_row, rid));
  if (t->row_count > 0) --t->row_count;
  t->stats_valid = false;
  return Status::OK();
}

Result<Rid> Database::Update(std::string_view table, const Rid& rid, const Row& row) {
  PSE_LOCKDEP_SCOPE("Database::Update");
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  Row old_row;
  PSE_RETURN_NOT_OK(t->heap->Get(rid, &old_row));
  PSE_ASSIGN_OR_RETURN(Rid new_rid, t->heap->Update(rid, row));
  PSE_RETURN_NOT_OK(MaintainIndexesDelete(t, old_row, rid));
  TableAppender appender(*pool_, t);
  PSE_RETURN_NOT_OK(appender.AppendKeys(row, new_rid));
  t->stats_valid = false;
  return new_rid;
}

Status Database::Analyze(const std::string& table) {
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  AnalyzeScan scan(*t->schema, t->row_count);
  PSE_RETURN_NOT_OK(t->heap->ScanTuples(&scan));
  t->stats = scan.Finish(*t->schema, t->heap->NumPages());
  t->stats_valid = true;
  t->row_count = t->stats.row_count;
  return Status::OK();
}

Status Database::AnalyzeAll() {
  for (auto& [name, info] : tables_) {
    PSE_RETURN_NOT_OK(Analyze(info->schema->name()));
  }
  return Status::OK();
}

void Database::ResetIoStats() {
  disk_->ResetStats();
  pool_->ResetStats();
}

}  // namespace pse

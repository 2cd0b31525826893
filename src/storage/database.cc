#include "storage/database.h"

#include <cstring>
#include <unordered_set>

#include "common/lock_registry.h"
#include "common/string_util.h"

namespace pse {

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

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' does not exist");
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

bool Database::HasTable(const std::string& name) const {
  return tables_.count(ToLower(name)) != 0;
}

Result<TableInfo*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' does not exist");
  return it->second.get();
}

Result<const TableInfo*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' does not exist");
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
  PSE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_.get()));
  idx->tree = std::make_unique<BPlusTree>(std::move(tree));
  // Backfill from existing rows.
  PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, t->heap->Begin());
  while (!it.AtEnd()) {
    const Value& v = it.row()[col_idx];
    if (!v.is_null()) {
      PSE_RETURN_NOT_OK(idx->tree->Insert(v.AsInt(), it.rid()));
    }
    PSE_RETURN_NOT_OK(it.Next());
  }
  t->indexes.push_back(std::move(idx));
  return Status::OK();
}

Status Database::RebuildIndexes(const std::string& table) {
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  for (auto& idx : t->indexes) {
    PSE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_.get()));
    auto fresh = std::make_unique<BPlusTree>(std::move(tree));
    PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, t->heap->Begin());
    while (!it.AtEnd()) {
      const Value& v = it.row()[idx->column_idx];
      if (!v.is_null()) {
        PSE_RETURN_NOT_OK(fresh->Insert(v.AsInt(), it.rid()));
      }
      PSE_RETURN_NOT_OK(it.Next());
    }
    // Old tree pages are orphaned rather than freed: page ids are never
    // reused (DiskManager policy), and after a crash the old tree cannot be
    // walked safely to enumerate them.
    idx->tree = std::move(fresh);
  }
  return Status::OK();
}

Status Database::MaintainIndexesInsert(TableInfo* t, const Row& row, Rid rid) {
  for (auto& idx : t->indexes) {
    const Value& v = row[idx->column_idx];
    if (!v.is_null()) PSE_RETURN_NOT_OK(idx->tree->Insert(v.AsInt(), rid));
  }
  return Status::OK();
}

Status Database::MaintainIndexesDelete(TableInfo* t, const Row& row, Rid rid) {
  for (auto& idx : t->indexes) {
    const Value& v = row[idx->column_idx];
    if (!v.is_null()) PSE_RETURN_NOT_OK(idx->tree->Delete(v.AsInt(), rid));
  }
  return Status::OK();
}

Result<Rid> Database::Insert(const std::string& table, const Row& row) {
  PSE_LOCKDEP_SCOPE("Database::Insert");
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  PSE_ASSIGN_OR_RETURN(Rid rid, t->heap->Insert(row));
  PSE_RETURN_NOT_OK(MaintainIndexesInsert(t, row, rid));
  ++t->row_count;
  t->stats_valid = false;
  return rid;
}

Status Database::Delete(const std::string& table, const Rid& rid) {
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

Result<Rid> Database::Update(const std::string& table, const Rid& rid, const Row& row) {
  PSE_LOCKDEP_SCOPE("Database::Update");
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  std::unique_lock<SharedMutex> table_lock(t->latch);
  Row old_row;
  PSE_RETURN_NOT_OK(t->heap->Get(rid, &old_row));
  PSE_ASSIGN_OR_RETURN(Rid new_rid, t->heap->Update(rid, row));
  PSE_RETURN_NOT_OK(MaintainIndexesDelete(t, old_row, rid));
  PSE_RETURN_NOT_OK(MaintainIndexesInsert(t, row, new_rid));
  t->stats_valid = false;
  return new_rid;
}

Status Database::Analyze(const std::string& table) {
  PSE_ASSIGN_OR_RETURN(TableInfo * t, GetTable(table));
  TableStatistics stats;
  const TableSchema& schema = *t->schema;
  std::vector<std::unordered_set<size_t>> distinct(schema.num_columns());
  std::vector<ColumnStatistics> cols(schema.num_columns());
  uint64_t rows = 0;
  double width_sum = 0;
  PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, t->heap->Begin());
  while (!it.AtEnd()) {
    const Row& row = it.row();
    ++rows;
    width_sum += static_cast<double>(TupleCodec::SerializedSize(schema, row));
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const Value& v = row[i];
      if (v.is_null()) {
        ++cols[i].null_count;
        continue;
      }
      distinct[i].insert(v.Hash());
      if (!cols[i].min.has_value() || v.Compare(*cols[i].min) < 0) cols[i].min = v;
      if (!cols[i].max.has_value() || v.Compare(*cols[i].max) > 0) cols[i].max = v;
    }
    PSE_RETURN_NOT_OK(it.Next());
  }
  stats.row_count = rows;
  stats.page_count = t->heap->NumPages();
  stats.avg_tuple_width = rows > 0 ? width_sum / static_cast<double>(rows) : 0.0;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    cols[i].num_distinct = distinct[i].size();
    stats.columns[schema.column(i).name] = cols[i];
  }
  t->stats = std::move(stats);
  t->stats_valid = true;
  t->row_count = rows;
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

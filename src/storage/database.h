// Database: the storage-level catalog. Owns the buffer pool and, per table,
// the schema, heap file, and any B+ tree indexes; maintains indexes on
// writes and computes optimizer statistics (ANALYZE).
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/statistics.h"
#include "catalog/tuple.h"
#include "common/rw_latch.h"
#include "common/status.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/migration_journal.h"
#include "storage/table_heap.h"

namespace pse {

/// One secondary (or primary) index over a single BIGINT column.
struct IndexInfo {
  std::string name;
  std::string column;
  size_t column_idx = 0;
  std::unique_ptr<BPlusTree> tree;
};

/// Runtime state of one table.
struct TableInfo {
  std::unique_ptr<TableSchema> schema;
  std::unique_ptr<TableHeap> heap;
  std::vector<std::unique_ptr<IndexInfo>> indexes;
  uint64_t row_count = 0;
  TableStatistics stats;
  bool stats_valid = false;
  /// Table-level content latch: scans hold it shared, row mutations
  /// (Database::Insert/Delete/Update and the migration copy loop) hold it
  /// exclusive. Ordered *under* Database::schema_latch() — always acquire
  /// the schema latch first (DESIGN.md §15).
  mutable SharedMutex latch;

  /// Finds an index on `column`, or nullptr.
  const IndexInfo* FindIndex(const std::string& column) const;
};

/// \brief Orders table names as their lowercase forms compare, without
/// building them.
///
/// The catalog stores lowercase names. On those this is std::string's
/// order, so TableNames() and the superblock keep theirs; a lookup in any
/// case finds its table and allocates nothing.
struct TableNameLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

/// \brief An embedded relational database instance.
///
/// Concurrency model: many reader threads may execute queries while one
/// migration thread evolves the schema. Readers hold schema_latch() shared
/// for the whole query so the catalog (table map, schemas, indexes) they
/// planned against cannot change underneath them; catalog mutations
/// (CreateTable/DropTable/CreateIndex/Analyze and the migration executor's
/// publish windows) hold it exclusive. Row-level reader/writer conflicts on
/// one table are covered by TableInfo::latch. The buffer pool and disk
/// managers latch themselves.
class Database {
 public:
  /// `pool_pages` is the buffer pool capacity in frames.
  explicit Database(size_t pool_pages = 4096,
                    std::unique_ptr<DiskManager> disk = nullptr);

  /// Opens (creating if needed) a file-backed database. An existing file's
  /// catalog — table schemas, heap extents, index roots — is restored from
  /// the superblock chain written by Checkpoint(); data pages are then
  /// demand-paged through the buffer pool.
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                size_t pool_pages = 4096);

  /// Opens a database over an arbitrary page store (same fresh-vs-restore
  /// protocol as the path overload). Used to wrap the backing store with
  /// fault injection in crash-recovery tests.
  static Result<std::unique_ptr<Database>> Open(std::unique_ptr<DiskManager> disk,
                                                size_t pool_pages = 4096);

  /// True once the superblock exists: Checkpoint() persists the catalog and
  /// a reopened instance restores it. Purely in-memory databases are not.
  bool persistent() const { return superblock_head_ != kInvalidPageId; }

  /// Durably persists the catalog (superblock chain at page 0) and flushes
  /// every dirty page. A database reopened after Checkpoint() sees exactly
  /// the checkpointed state. Only meaningful for file-backed databases but
  /// harmless (a no-op catalog write) in memory.
  Status Checkpoint();

  /// Creates an empty table. AlreadyExists if the name is taken. Key columns
  /// declared in the schema automatically get a primary index when the first
  /// key column is BIGINT.
  Status CreateTable(const TableSchema& schema, bool auto_key_index = true);
  /// Drops a table, freeing its heap pages.
  Status DropTable(std::string_view name);
  /// True if the table exists.
  bool HasTable(std::string_view name) const;
  /// Looks up a table, in any case. NotFound if absent.
  Result<TableInfo*> GetTable(std::string_view name);
  Result<const TableInfo*> GetTable(std::string_view name) const;
  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Builds a B+ tree index over an existing BIGINT column.
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Rebuilds every index of `table` from its heap (fresh trees, full
  /// backfill). Crash recovery uses this: after a restart the checkpointed
  /// tree metadata may trail pages written since, so the in-flight table's
  /// indexes are re-derived from the (verified) heap instead of trusted.
  Status RebuildIndexes(const std::string& table);

  /// \brief Appends `rows` to `table` in order, maintaining every index:
  /// the one insert path.
  ///
  /// Looks the table up and takes its latch once. The heap's last page and
  /// each index's last root-to-leaf path stay pinned from row to row, with
  /// the page images and disk I/O of inserting the rows one at a time
  /// (PinList, DESIGN.md §20). `*appended`, when given, counts the rows
  /// inserted in full. A row that fails stops the batch as a lone insert
  /// would have stopped: the rows before it stay, and so does whatever of it
  /// reached the heap and the indexes before the error.
  Status InsertBatch(std::string_view table, std::span<const Row> rows,
                     size_t* appended = nullptr);
  /// Inserts one row, maintaining all indexes: a batch of one.
  Result<Rid> Insert(std::string_view table, const Row& row);
  /// Deletes by rid, maintaining indexes.
  Status Delete(std::string_view table, const Rid& rid);
  /// Updates by rid, maintaining indexes; returns the new rid. When the
  /// row cannot be written (TableHeap::Update), the heap, the indexes and
  /// the row count stay as they were.
  Result<Rid> Update(std::string_view table, const Rid& rid, const Row& row);

  /// Recomputes statistics for one table (full scan).
  Status Analyze(const std::string& table);
  /// Recomputes statistics for every table.
  Status AnalyzeAll();

  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }

  /// Total physical I/O so far (page reads + writes).
  uint64_t TotalIo() const { return disk_->stats().TotalIo(); }
  /// Resets both disk and buffer-pool counters (per-phase measurement).
  void ResetIoStats();

  /// In-flight migration record. Persisted by Checkpoint(), restored by
  /// Open(); the MigrationExecutor owns its contents and lifecycle.
  const MigrationJournal& migration_journal() const { return journal_; }
  MigrationJournal* mutable_migration_journal() { return &journal_; }
  /// True when a migration operator crashed (or errored) mid-flight and its
  /// journal was restored from disk — resume or roll back before trusting
  /// the affected tables.
  bool HasPendingMigration() const { return journal_.active; }

  /// Catalog latch. Readers (Session::Execute, any code that holds
  /// TableInfo* across calls) take it shared; schema changes take it
  /// exclusive. Exposed rather than wrapped because a reader must span
  /// rewrite + plan + execute with one shared acquisition.
  SharedMutex& schema_latch() const { return schema_latch_; }

 private:
  Status MaintainIndexesDelete(TableInfo* t, const Row& row, Rid rid);
  /// A fresh tree over column `column` of every live row of `t`: the one
  /// index backfill, for CreateIndex and RebuildIndexes.
  Result<std::unique_ptr<BPlusTree>> BuildIndexTree(const TableInfo& t, size_t column);

  Status WriteSuperblock();
  Status LoadSuperblock();

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  mutable SharedMutex schema_latch_;
  std::map<std::string, std::unique_ptr<TableInfo>, TableNameLess> tables_;
  MigrationJournal journal_;
  /// Head of the catalog superblock chain (kInvalidPageId until the first
  /// Checkpoint on a fresh database).
  PageId superblock_head_ = kInvalidPageId;
};

}  // namespace pse

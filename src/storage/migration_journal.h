// MigrationJournal: durable record of an in-flight migration operator.
//
// The journal is part of the Database catalog and rides the superblock
// chain: every Checkpoint() persists it, and Database::Open restores it, so
// a process that dies mid-migration can either resume the operator from its
// last committed batch or roll the half-built tables back (the
// MigrationExecutor implements both protocols — see DESIGN.md §14).
//
// The record is storage-level on purpose: it names tables and row cursors,
// never core-level schema objects, so the storage layer stays independent
// of the migration machinery that writes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pse {

/// \brief Per-operator progress of an online migration.
struct MigrationJournal {
  /// Execution phases of one operator, in order. Before kDropSources the
  /// operator can be rolled back (sources are untouched); from kDropSources
  /// on it can only roll forward.
  enum class Phase : uint8_t {
    kCreateTargets = 0,  ///< destination tables + indexes being created
    kCopy = 1,           ///< batched data movement in progress
    kDropSources = 2,    ///< copy durable; superseded source tables dropping
    kFinalize = 3,       ///< sources gone; re-ANALYZE and clear the journal
  };

  /// Copy progress of one destination table.
  struct Target {
    std::string table;
    bool completed = false;  ///< fully copied and made durable
    /// Source rows consumed, as a *count*. Sufficient on its own only while
    /// the source is frozen: scan order is insert order (heap tail-append),
    /// but concurrent DML makes a count ambiguous — a delete behind the
    /// cursor shifts later rows under it, and an insert behind it would be
    /// skipped. Kept as the resume fallback for journals without a frontier.
    uint64_t src_cursor = 0;
    uint64_t dest_rows = 0;  ///< rows inserted (== cursor unless deduplicating)
    /// Copy frontier: packed Rid (rid.Pack()) of the first source row NOT
    /// yet consumed, as of the last committed batch. Every batch — the
    /// first after a resume included — seeks the source there
    /// (TableHeap::Seek) and consumes rows with rid.Pack() >= frontier.
    /// Rids are tail-append-monotone, so rows *behind* the frontier were all
    /// scanned, whatever concurrent DML did to the count — an insert behind
    /// an already-valid frontier must be propagated by the writer itself
    /// (the DmlRouter's dual-apply), never by the copy loop.
    uint64_t frontier = 0;
    bool frontier_valid = false;  ///< false on pre-frontier journals (use src_cursor)
  };

  bool active = false;
  int32_t op_id = 0;
  uint8_t op_kind = 0;  ///< OperatorKind of the in-flight operator
  Phase phase = Phase::kCreateTargets;
  /// Source tables to drop once every target is complete.
  std::vector<std::string> drop_tables;
  std::vector<Target> targets;
  /// Index into `targets` of the in-flight destination.
  uint32_t target_pos = 0;
  /// Batches committed so far (reporting/fault-injection bookkeeping).
  uint64_t batches_committed = 0;

  void Clear() { *this = MigrationJournal{}; }

  /// One-line human-readable summary ("inactive" when !active).
  std::string ToString() const;
};

const char* MigrationPhaseName(MigrationJournal::Phase phase);

}  // namespace pse

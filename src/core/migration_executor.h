// MigrationExecutor: performs the physical side of a migration operator —
// the data movement the paper keeps "at the same level of data movement
// required by the migration". Structural application (operators.h) decides
// what the schema looks like; this class creates/loads/drops the actual
// tables on a Database and reports the I/O consumed.
//
// Execution is *online*: data moves in bounded batches, each batch is made
// durable (for persistent databases) together with a MigrationJournal record
// of the copy cursor, and an optional per-batch hook lets callers interleave
// foreground queries or inject faults between batches. A process that dies
// mid-operator can reopen the database and either Resume() the operator from
// its last committed batch or Rollback() the half-built tables. See
// DESIGN.md §14 for the full protocol.
//
// Concurrency: execution is also safe against foreground reader threads.
// Catalog-mutating phases (create-targets, drop-sources/finalize, recovery,
// rollback) run under the database's exclusive catalog latch — a brief
// quiesce that drains in-flight queries; the long copy phase holds no
// catalog latch at all (targets are invisible to readers) and takes only
// per-batch shared content latches on the tables it reads, one at a time.
// Readers therefore always see either the pre-op or the post-op layout,
// never a torn one. See DESIGN.md §15.
#pragma once

#include <functional>
#include <vector>

#include "core/logical_database.h"
#include "core/operators.h"
#include "core/physical_schema.h"
#include "storage/database.h"

namespace pse {

class DmlRouter;  // core/rewriter_dml.h

/// Snapshot handed to MigrationOptions::on_batch after every committed batch.
struct MigrationBatchEvent {
  int op_id = 0;                ///< id of the in-flight operator
  uint64_t batch_index = 0;     ///< batches committed so far for this operator
  uint64_t rows_copied = 0;     ///< rows moved by this operator so far
};

/// Tuning and instrumentation knobs for online execution.
struct MigrationOptions {
  /// Rows moved per batch before committing and yielding to the hook.
  uint64_t batch_rows = 1024;
  /// Called after every committed batch. I/O performed inside the hook
  /// (foreground queries) is excluded from the migration's reported I/O.
  /// A non-OK return aborts the operator — the fault-injection tests use
  /// this to simulate crashes between batches. Runs with no latches held,
  /// so the hook may execute queries freely.
  std::function<Status(const MigrationBatchEvent&)> on_batch;
  /// Called once per operator, inside the exclusive-catalog quiesce window,
  /// right after the sources are dropped and the targets analyzed — i.e. at
  /// the instant the post-op schema becomes the serving truth. Concurrent
  /// load generators use it to swap their schema snapshot atomically with
  /// the catalog: a query planned before the window sees the pre-op layout,
  /// one planned after sees the post-op layout, and nothing in between.
  /// Must not execute queries (the catalog latch is held exclusively).
  std::function<void(const PhysicalSchema&)> on_publish;
  /// On any error, drop the operator's half-built target tables and clear
  /// the journal before returning (the atomicity guarantee). Crash tests
  /// set this to false so the torn state survives for Resume().
  bool rollback_on_error = true;
  /// Foreground write router to co-operate with (DESIGN.md §19). When set,
  /// the executor attaches the in-flight operator to it so concurrent DML
  /// dual-applies onto the copy targets: each copy batch runs under the
  /// router's write mutex, consults the shared per-target key sets instead
  /// of private dedup state, finds a combine's parents through the parent
  /// key's B+ tree instead of a hash built once, and the pre-publish
  /// quiesce backfills provenance-only rows before detaching. The router
  /// must outlive the Apply/Resume call; the same router must serve every
  /// foreground writer.
  DmlRouter* dml_router = nullptr;
};

/// \brief Applies migration operators to a materialized database.
class MigrationExecutor {
 public:
  /// `data` is the entity-level source of truth, used to materialize
  /// CreateTable fragments (values of new attributes).
  MigrationExecutor(Database* db, const LogicalDatabase* data) : db_(db), data_(data) {}

  /// Limits CreateTable loads to the first visible[e] rows of each entity
  /// (data-growth support); empty = everything.
  void set_visible_rows(std::vector<size_t> visible) { visible_ = std::move(visible); }

  void set_options(MigrationOptions options) { options_ = std::move(options); }
  const MigrationOptions& options() const { return options_; }

  /// Applies `op` physically and updates `schema` to the post-op schema.
  /// Returns the physical page I/O consumed by the data movement (I/O spent
  /// inside the on_batch hook excluded). On error the operator's partial
  /// work is rolled back (unless rollback_on_error is off) and `schema` is
  /// left untouched.
  Result<uint64_t> Apply(const MigrationOperator& op, PhysicalSchema* schema);

  /// Applies several operators (must already be dependency-ordered) and
  /// returns their total I/O. A mid-sequence failure status is annotated
  /// with the operators applied and the I/O spent before it.
  Result<uint64_t> ApplyAll(const std::vector<MigrationOperator>& ops, PhysicalSchema* schema);

  /// \brief Continues a journaled operator after a crash + Database::Open.
  ///
  /// `op` must be the journaled operator (matched by id and kind) and
  /// `*schema` the physical schema as of *before* that operator. Validates
  /// the journal against the replanned operator, repairs any torn target
  /// heap (rebuilding it from its source when the row count disagrees with
  /// the journal), and finishes the remaining phases. Returns the additional
  /// I/O spent by the resumed portion.
  Result<uint64_t> Resume(const MigrationOperator& op, PhysicalSchema* schema);

  /// \brief Aborts the journaled operator, dropping its half-built targets.
  ///
  /// Only legal before the journal reaches the drop-sources phase (after
  /// that the sources are partially gone and the operator can only roll
  /// forward via Resume). Clears the journal and checkpoints.
  Status Rollback();

 private:
  struct OpPlan;

  Result<uint64_t> Run(const MigrationOperator& op, PhysicalSchema* schema, bool resume);
  Status RunPhases(const OpPlan& plan, bool resume);
  Status RecoverTargets(const OpPlan& plan);
  Status CopyTarget(const OpPlan& plan, size_t target_idx);
  Status CommitBatch();
  Status FireHook(uint64_t rows_copied);
  Status RollbackInternal();

  Result<OpPlan> BuildPlan(const MigrationOperator& op, const PhysicalSchema& before,
                           const PhysicalSchema& after) const;

  Database* db_;
  const LogicalDatabase* data_;
  std::vector<size_t> visible_;
  MigrationOptions options_;
  /// I/O consumed inside on_batch hooks during the current Apply/Resume
  /// (excluded from the reported migration I/O).
  uint64_t hook_io_ = 0;
  uint64_t io_start_ = 0;
};

}  // namespace pse

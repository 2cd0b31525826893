// Write rewriter: bidirectional DML on intermediate schemas.
//
// RewriteQuery (rewriter.h) lets both application versions *read* any
// physical layout; this module is the write half. A version's DML statement
// is expressed against one of its VersionTables (writability.h) in entity
// terms — anchor key plus attribute assignments — and RewriteDml lowers it
// onto the current intermediate PhysicalSchema as a fan-out of fragment
// writes across already-applied CombineTable/SplitTable boundaries:
//
//   INSERT  one kAnchorInsert per fragment anchored at the statement's
//           entity (denormalized parent columns filled through the
//           resolution ladder below), preceded by one kParentMerge per
//           parent entity the statement provides attributes for —
//           create-or-merge with *existing wins* semantics, mirroring the
//           bidirectional-lens treatment of cross-entity combines (BiDEL;
//           Tanaka & Kato, PAPERS.md);
//   UPDATE  keyed updates on fragments anchored at the entity, fan-out
//           updates on fragments that denormalize the touched attributes
//           under a descendant anchor (matched on the stored FK column, so
//           dangling references heal), and parent-row updates located by
//           resolving the anchor row's FK chain; updating an FK attribute
//           refreshes every denormalized column that depends on it;
//   DELETE  keyed deletes on the entity's anchored fragments plus fan-out
//           kFanClear writes that NULL the entity's columns out of
//           denormalized fragments. Parent attribute values carried only by
//           deleted rows are snapshotted into the ProvenanceStore first —
//           the provenance rows AnalyzeWritability's
//           kRecoverableWithProvenance lens class calls for.
//
// Resolution ladder for a denormalized parent column at insert/refresh
// time: (1) keyed row in a fragment anchored at the parent, (2) a sibling
// row in the same fragment referencing the same parent, (3) the provenance
// store, (4) the statement-provided value, (5) NULL.
//
// Servability agrees with the static analyzer by construction: RewriteDml
// returns BindError exactly when ClassifyVersionTable's cell for the
// statement's DML kind is kUnservable (property-tested in
// tests/core/rewriter_dml_test.cc).
//
// The DmlRouter executes bound statements and integrates with a live
// migration (always-dual-apply protocol, DESIGN.md §19): while an operator
// copies, every statement fully applies to the current schema — the source
// side stays authoritative until kDropSources — and is re-rewritten against
// the operator's post-op schema, applying only the fragment writes that
// land on journal targets. Per-target key sets shared with the copy loop
// make the dual writes and the batched copy idempotent with respect to each
// other, whichever side of the copy frontier a row is on.
//
// Locking (DESIGN.md §17/§19): the router's write mutex ranks at
// kLockRankDmlRouter (25) — above the catalog and serving-schema latches its
// callers hold, below every table latch it acquires — and serializes whole
// statements against whole copy batches. The provenance map mutex ranks at
// kLockRankProvenance (26) and never does I/O.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/writability.h"
#include "catalog/tuple.h"
#include "catalog/value.h"
#include "common/lock_registry.h"
#include "common/status.h"
#include "core/physical_schema.h"
#include "sql/dml_hook.h"
#include "storage/database.h"

namespace pse {

/// One entity-level DML statement, as an application version issues it
/// against one of its VersionTables. INSERT provides the new anchor key and
/// any attribute values (unset attributes become NULL); UPDATE/DELETE
/// address the row by anchor key.
struct LogicalDml {
  DmlKind kind = DmlKind::kInsert;
  VersionTable table;
  int64_t key = 0;
  /// Assigned attributes (INSERT: provided columns; UPDATE: SET list), each
  /// a member of `table.attrs`. Unused for DELETE.
  std::vector<AttrId> set_attrs;
  std::vector<Value> set_values;  ///< parallel to set_attrs

  std::string ToString() const;
};

/// How one planned fragment write locates and mutates its physical rows.
enum class FragmentWriteOp : uint8_t {
  kAnchorInsert,  ///< insert one row into a fragment anchored at the entity
  kKeyedUpdate,   ///< update rows matched on a stored key column
  kKeyedDelete,   ///< delete rows matched on the anchor key column
  kFanUpdate,     ///< update rows matched on the stored FK column into the entity
  kFanClear,      ///< NULL the entity's columns out of matching rows (DELETE fan-out)
  kParentMerge,   ///< create-or-merge a parent entity row (existing wins)
};
const char* FragmentWriteOpName(FragmentWriteOp op);

/// One physical write of the fan-out. Columns are positions into the
/// fragment's TableSchema (attribute order). `resolve_match` marks writes
/// whose match key is a parent key found at apply time by walking the
/// anchor row's FK chain; `resolve_cols` marks insert columns filled at
/// apply time through the resolution ladder.
struct FragmentWrite {
  FragmentWriteOp op = FragmentWriteOp::kAnchorInsert;
  size_t table_idx = 0;  ///< index into PhysicalSchema::tables()
  std::string table;     ///< that fragment's name
  EntityId entity = kInvalidId;  ///< entity whose row(s) this write touches

  size_t match_col = 0;  ///< row-match column (not used by kAnchorInsert)
  Value match_value;     ///< anchor key, or unset when resolve_match
  bool resolve_match = false;

  std::vector<size_t> cols;   ///< columns written (update/clear/merge)
  std::vector<Value> values;  ///< parallel to cols
  /// kAnchorInsert / kParentMerge row creation: the full row image; columns
  /// listed in resolve_cols hold NULL until the ladder resolves them.
  Row row;
  std::vector<size_t> resolve_cols;
  std::vector<AttrId> resolve_attrs;  ///< parallel to resolve_cols
};

/// A DML statement bound to one physical schema: its writability class and
/// the fragment writes it fans out to, in application order.
struct BoundDml {
  LogicalDml dml;
  Writability level = Writability::kSafe;
  std::vector<FragmentWrite> writes;
};

/// Lowers `dml` onto `schema`. BindError exactly when ClassifyVersionTable
/// reports the statement's DML kind kUnservable on this schema;
/// InvalidArgument when the statement itself is malformed (an assigned
/// attribute outside the version table, SELECT kind, arity mismatch).
Result<BoundDml> RewriteDml(const LogicalDml& dml, const PhysicalSchema& schema);

/// \brief Row provenance: attribute values whose only physical storage a
/// write destroyed or could not reach.
///
/// Two producers: DELETE snapshots the parent-entity values its deleted
/// rows carried (a cross-entity combine stores the parent only inside its
/// children's rows), and INSERT of a bare parent row on a schema with no
/// parent-anchored fragment and no covering child rows. Consumers: the
/// resolution ladder, and the migration executor's pre-publish backfill,
/// which materializes provenance-only parent rows into split targets so no
/// information is lost across the operator (the
/// kRecoverableWithProvenance contract). In-memory only — scoped to the
/// serving process, like the ServingSchema it travels with.
class ProvenanceStore {
 public:
  ProvenanceStore() { mu_.LockdepRegister("provenance", kLockRankProvenance, /*allows_io=*/false); }

  /// Records `attr` of entity row (entity, key); creates the row entry.
  void Put(EntityId entity, int64_t key, AttrId attr, const Value& v);
  /// Marks the entity row as existing without recording any attribute.
  void EnsureRow(EntityId entity, int64_t key);
  std::optional<Value> Get(EntityId entity, int64_t key, AttrId attr) const;
  bool Has(EntityId entity, int64_t key) const;
  void Erase(EntityId entity, int64_t key);
  /// All rows of `entity`: (key, attr values) pairs, key-ascending.
  std::vector<std::pair<int64_t, std::map<AttrId, Value>>> RowsOf(EntityId entity) const;
  size_t NumRows() const;

 private:
  mutable Mutex mu_;
  std::map<std::pair<EntityId, int64_t>, std::map<AttrId, Value>> rows_;
};

/// Cumulative counters of one router. The router bumps them under its write
/// mutex; any thread may read them while statements run, each counter on
/// its own (the four are not read as one snapshot).
struct DmlStats {
  std::atomic<uint64_t> statements{0};       ///< statements fully applied
  std::atomic<uint64_t> fragment_writes{0};  ///< physical row writes performed
  std::atomic<uint64_t> provenance_rows{0};  ///< provenance entries written
  std::atomic<uint64_t> dual_applied{0};     ///< statements additionally applied to targets
};

/// \brief Executes rewritten DML against a Database, dual-applying onto the
/// in-flight migration operator's targets while one is attached.
///
/// Callers must hold the database catalog latch shared across Execute (the
/// same discipline as query lanes), or be the migration thread inside one
/// of its own windows. Execute serializes on the write mutex against other
/// statements and against whole copy batches.
class DmlRouter {
 public:
  /// `provenance` may be null: the router then owns a private store.
  explicit DmlRouter(Database* db, ProvenanceStore* provenance = nullptr);

  /// Rewrites `dml` against `current` and applies every fragment write;
  /// with an operator attached, re-rewrites against the post-op schema and
  /// applies the target-table writes too. BindError when unservable on
  /// `current` (callers count it unservable, not an error).
  Status Execute(const LogicalDml& dml, const PhysicalSchema& current);

  ProvenanceStore* provenance() { return provenance_; }
  const DmlStats& stats() const { return stats_; }

  // -- migration integration (called by MigrationExecutor; see
  //    migration_executor.cc for the call sites and DESIGN.md §19) --

  /// Copy state of one journal target, shared between the router's dual
  /// writes and the copy loop. `keys` holds every anchor key present in the
  /// destination heap; both sides consult and extend it under the write
  /// mutex, which is what makes "already in the destination" a stable
  /// predicate across the copy frontier.
  struct TargetState {
    std::string table;
    size_t after_idx = 0;    ///< index into the post-op schema's tables
    size_t key_col = 0;      ///< destination key column position
    size_t journal_idx = 0;  ///< index into MigrationJournal::targets
    std::unordered_set<Value, ValueHash, ValueEq> keys;
  };

  /// Attaches the in-flight operator: `after` is its post-op schema (must
  /// outlive the attachment). Rebuilds every target's key set from the
  /// destination heaps (missing tables mean an empty set — the fresh path
  /// attaches before kCreateTargets).
  Status AttachOp(const PhysicalSchema* after, std::vector<TargetState> targets);
  /// Re-derives every key set from the destination heaps. The executor
  /// calls this after crash recovery may have rebuilt torn targets.
  Status RebuildKeys();
  void DetachOp();
  bool attached() const;

  /// Copy state for destination `table`; nullptr when not attached or not a
  /// target. The copy loop reads/extends `keys` under the write mutex.
  TargetState* FindTarget(const std::string& table);

  /// Materializes provenance-only parent rows into every attached target
  /// (key not yet present). Called by the executor inside the pre-publish
  /// quiesce window so split targets keep rows whose source storage was
  /// deleted mid-copy.
  Status BackfillProvenance();

  /// Statement/batch-scope write mutex (kLockRankDmlRouter). The copy loop
  /// holds it across one whole batch; Execute across one whole statement.
  Mutex& write_mutex() { return write_mu_; }

 private:
  /// Applies the fan-out onto `schema`'s tables; the resolution ladder reads
  /// `truth` (the authoritative current schema). `parent_exists` is the
  /// pre-statement existence snapshot per parent entity (existing-wins merges
  /// must not be fooled by the bare-parent provenance rows the statement
  /// itself wrote). In dest mode only journal targets are written and the
  /// shared key sets / journal row counts are maintained.
  Status ApplyBound(const BoundDml& bound, const PhysicalSchema& schema,
                    const PhysicalSchema& truth, const std::map<EntityId, bool>& parent_exists,
                    bool dest_mode);

  Database* db_;
  ProvenanceStore owned_provenance_;
  ProvenanceStore* provenance_;
  Mutex write_mu_;
  DmlStats stats_;

  // Attached-operator state (mutated only under write_mu_).
  const PhysicalSchema* after_ = nullptr;
  std::vector<TargetState> targets_;
};

/// \brief SessionDmlHook implementation: lifts parsed SQL DML against a
/// version table into a LogicalDml and routes it through a DmlRouter.
///
/// The session's Execute already holds the catalog latch shared; this
/// bridge only adds the router's own latches (ranks 25+), keeping the
/// canonical order. A statement naming a table outside `tables` is not
/// handled (returns false) and falls through to the session's physical
/// path. Because version-table DML is entity-level, UPDATE/DELETE must
/// address one row as `WHERE <key> = <literal>` and assignments must be
/// literals; anything else is InvalidArgument, not a fall-through (the
/// version table has no physical counterpart to fall through to).
class SqlDmlBridge : public SessionDmlHook {
 public:
  /// Returns the schema snapshot a statement executes against — typically
  /// ServingSchema::Get, so the bridge follows live migration publishes.
  using SchemaProvider = std::function<std::shared_ptr<const PhysicalSchema>()>;

  SqlDmlBridge(DmlRouter* router, std::vector<VersionTable> tables, SchemaProvider current)
      : router_(router), tables_(std::move(tables)), current_(std::move(current)) {}

  Result<bool> OnInsert(const InsertStmt& stmt, uint64_t* affected) override;
  Result<bool> OnUpdate(const UpdateStmt& stmt, uint64_t* affected) override;
  Result<bool> OnDelete(const DeleteStmt& stmt, uint64_t* affected) override;

 private:
  const VersionTable* Find(const std::string& name) const;
  Result<std::shared_ptr<const PhysicalSchema>> Snapshot() const;

  DmlRouter* router_;
  std::vector<VersionTable> tables_;
  SchemaProvider current_;
};

}  // namespace pse

#include "core/migration_executor.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/lock_registry.h"
#include "common/string_util.h"
#include "core/rewriter_dml.h"
#include "engine/tuple_batch.h"

namespace pse {

namespace {

/// Indexes of tables present in `a` but not in `b`.
std::vector<size_t> TablesOnlyIn(const PhysicalSchema& a, const PhysicalSchema& b) {
  std::vector<size_t> out;
  for (size_t i = 0; i < a.tables().size(); ++i) {
    if (!b.TableByName(a.tables()[i].name).ok()) out.push_back(i);
  }
  return out;
}

using KeySet = std::unordered_set<Value, ValueHash, ValueEq>;
/// A combine's parent rows by join key.
using ParentRows = std::unordered_map<Value, Row, ValueHash, ValueEq>;

/// Adds to `out`, for every distinct non-NULL value of `right`'s column
/// `key_pos` (every value in `*wanted` only, when set), the first row in
/// heap order holding it. Callers hold `right`'s content latch shared.
Status HashParents(const TableInfo& right, size_t key_pos, const KeySet* wanted,
                   ParentRows* out) {
  PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, right.heap->Begin());
  while (!it.AtEnd()) {
    const Value& k = it.row()[key_pos];
    if (!k.is_null() && (wanted == nullptr || wanted->count(k) > 0)) out->emplace(k, it.row());
    PSE_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

/// Adds to `out` the parent row of every distinct non-NULL key in `keys`:
/// the first live row of `right` in rid order whose column `key_pos` equals
/// it. Rid order is heap order (DESIGN.md §19 "Row location"), so this is
/// the row HashParents keeps. BIGINT keys are probed in that column's B+
/// tree, whose entries for one key ascend by rid; keys it cannot serve (no
/// index on the column, or a non-BIGINT key) are found by one heap scan. A
/// key with no parent stays absent. Callers hold `right`'s content latch
/// shared.
Status ProbeParents(const TableInfo& right, size_t key_pos, const std::vector<Value>& keys,
                    ParentRows* out) {
  const IndexInfo* index = right.FindIndex(right.schema->column(key_pos).name);
  KeySet probed, unindexed;
  std::vector<Rid> rids;
  Row row;
  for (const Value& k : keys) {
    if (k.is_null() || !probed.insert(k).second) continue;
    if (index == nullptr || k.type() != TypeId::kInt64) {
      unindexed.insert(k);
      continue;
    }
    rids.clear();
    PSE_RETURN_NOT_OK(index->tree->ScanEqual(k.AsInt(), &rids));
    if (rids.empty()) continue;
    PSE_RETURN_NOT_OK(right.heap->Get(rids.front(), &row));
    out->emplace(k, std::move(row));
  }
  if (unindexed.empty()) return Status::OK();
  return HashParents(right, key_pos, &unindexed, out);
}

}  // namespace

/// One destination table of an operator plus how to produce its rows. The
/// plan is fully deterministic given (op, before-schema), so a resumed
/// process replans and lands on the same targets the journal recorded.
struct MigrationExecutor::OpPlan {
  enum class Source { kEntity, kScan, kJoin };

  struct Target {
    TableSchema schema;
    size_t after_idx = 0;  ///< index in `after` (for EnsureSecondaryIndexes)
    Source source = Source::kScan;

    // kEntity (create): rows come from the LogicalDatabase, built by a row
    // plan resolved once per operator.
    EntityId entity = kInvalidId;
    size_t entity_limit = 0;
    TableRowPlan row_plan;

    // kScan (split): project columns of one source table.
    std::string scan_table;
    std::vector<size_t> mapping;  ///< dest column -> source column
    bool dedup = false;           ///< keep first row per key (column 0)

    // kJoin (combine): left outer join of two source tables.
    std::string left_table, right_table;
    size_t left_join_pos = 0, right_join_pos = 0;
    /// dest column -> (from left side?, source column position)
    std::vector<std::pair<bool, size_t>> join_mapping;
  };

  std::vector<Target> targets;
  std::vector<std::string> drop_tables;  ///< sources dropped once copied
  const PhysicalSchema* after = nullptr;
};

Status MigrationExecutor::CommitBatch() {
  // An in-memory database's journal cannot outlive the process: it commits
  // nothing per batch and flushes once per operator, at publish (RunPhases).
  if (db_->persistent()) return db_->Checkpoint();
  return Status::OK();
}

Status MigrationExecutor::FireHook(uint64_t rows_copied) {
  if (!options_.on_batch) return Status::OK();
  MigrationBatchEvent ev;
  const MigrationJournal& j = db_->migration_journal();
  ev.op_id = j.op_id;
  ev.batch_index = j.batches_committed;
  ev.rows_copied = rows_copied;
  uint64_t before = db_->TotalIo();
  Status s = options_.on_batch(ev);
  hook_io_ += db_->TotalIo() - before;
  return s;
}

Result<MigrationExecutor::OpPlan> MigrationExecutor::BuildPlan(const MigrationOperator& op,
                                                               const PhysicalSchema& before,
                                                               const PhysicalSchema& after) const {
  OpPlan plan;
  std::vector<size_t> removed = TablesOnlyIn(before, after);
  std::vector<size_t> added = TablesOnlyIn(after, before);

  switch (op.kind) {
    case OperatorKind::kCreateTable: {
      if (added.size() != 1) return Status::Internal("create must add exactly one table");
      OpPlan::Target t;
      t.schema = after.ToTableSchema(added[0]);
      t.after_idx = added[0];
      t.source = OpPlan::Source::kEntity;
      t.entity = op.create_entity;
      PSE_ASSIGN_OR_RETURN(t.row_plan, data_->PlanTableRows(after, added[0]));
      const auto& entity_rows = data_->Rows(op.create_entity);
      t.entity_limit = op.create_entity < visible_.size()
                           ? std::min(visible_[op.create_entity], entity_rows.size())
                           : entity_rows.size();
      plan.targets.push_back(std::move(t));
      break;
    }

    case OperatorKind::kSplitTable: {
      if (removed.size() != 1 || added.size() != 2) {
        return Status::Internal("split must replace one table with two");
      }
      const PhysicalTable& old_table = before.tables()[removed[0]];
      TableSchema old_ts = before.ToTableSchema(removed[0]);
      for (size_t target : added) {
        OpPlan::Target t;
        t.schema = after.ToTableSchema(target);
        t.after_idx = target;
        t.source = OpPlan::Source::kScan;
        t.scan_table = old_table.name;
        for (const Column& c : t.schema.columns()) {
          PSE_ASSIGN_OR_RETURN(size_t pos, old_ts.ColumnIndex(c.name));
          t.mapping.push_back(pos);
        }
        // A side anchored at a different entity stores one row per distinct
        // key (the denormalized source repeats them).
        t.dedup = after.tables()[target].anchor != old_table.anchor;
        plan.targets.push_back(std::move(t));
      }
      plan.drop_tables.push_back(old_table.name);
      break;
    }

    case OperatorKind::kCombineTable: {
      if (removed.size() != 2 || added.size() != 1) {
        return Status::Internal("combine must replace two tables with one");
      }
      const LogicalSchema& L = *before.logical();
      const PhysicalTable& result = after.tables()[added[0]];
      // Left = the side sharing the result anchor (drives the row set).
      size_t left_i = removed[0], right_i = removed[1];
      if (before.tables()[right_i].anchor == result.anchor &&
          before.tables()[left_i].anchor != result.anchor) {
        std::swap(left_i, right_i);
      }
      const PhysicalTable& left = before.tables()[left_i];
      const PhysicalTable& right = before.tables()[right_i];
      TableSchema left_ts = before.ToTableSchema(left_i);
      TableSchema right_ts = before.ToTableSchema(right_i);

      std::string left_join_col, right_join_col;
      if (left.anchor == right.anchor) {
        left_join_col = left_ts.key_columns()[0];
        right_join_col = right_ts.key_columns()[0];
      } else {
        PSE_ASSIGN_OR_RETURN(std::span<const AttrId> path,
                             L.FkPath(left.anchor, right.anchor));
        left_join_col = L.attr(path.back()).name;
        right_join_col = right_ts.key_columns()[0];
      }

      OpPlan::Target t;
      t.schema = after.ToTableSchema(added[0]);
      t.after_idx = added[0];
      t.source = OpPlan::Source::kJoin;
      t.left_table = left.name;
      t.right_table = right.name;
      PSE_ASSIGN_OR_RETURN(t.left_join_pos, left_ts.ColumnIndex(left_join_col));
      PSE_ASSIGN_OR_RETURN(t.right_join_pos, right_ts.ColumnIndex(right_join_col));
      for (const Column& c : t.schema.columns()) {
        auto lp = left_ts.ColumnIndex(c.name);
        if (lp.ok()) {
          t.join_mapping.emplace_back(true, *lp);
          continue;
        }
        PSE_ASSIGN_OR_RETURN(size_t rp, right_ts.ColumnIndex(c.name));
        t.join_mapping.emplace_back(false, rp);
      }
      plan.targets.push_back(std::move(t));
      plan.drop_tables.push_back(left.name);
      plan.drop_tables.push_back(right.name);
      break;
    }
  }
  plan.after = &after;
  return plan;
}

Status MigrationExecutor::CopyTarget(const OpPlan& plan, size_t target_idx) {
  PSE_LOCKDEP_SCOPE("MigrationExecutor::CopyTarget");
  const OpPlan::Target& t = plan.targets[target_idx];
  MigrationJournal* j = db_->mutable_migration_journal();

  // A completed target was checkpointed after its last batch; nothing left
  // to copy. Resume can land here when the crash hit after that final
  // commit but before the one that advances target_pos — the frontier is
  // stale then (it marks the *last* batch's start, never end-of-source), so
  // re-entering the copy loop would re-copy the final batch.
  if (j->targets[target_idx].completed) return Status::OK();

  // Foreground write co-operation (DESIGN.md §19): with a router attached,
  // the per-target key set shared with its dual-apply replaces the private
  // dedup state, every batch runs under the router's write mutex, and each
  // batch looks up its own parents (a foreground write may change the
  // parent side between batches).
  DmlRouter* router = options_.dml_router;
  DmlRouter::TargetState* ts =
      router != nullptr && router->attached() ? router->FindTarget(t.schema.name()) : nullptr;

  // Rebuild transient copy state from the durable cursor. All of it is a
  // deterministic function of (sources, cursor), which is what makes the
  // cursor a sufficient resume point.
  KeySet seen_keys;
  if (t.dedup && ts == nullptr && j->targets[target_idx].dest_rows > 0) {
    // The destination holds exactly the first-seen keys inserted so far;
    // its column 0 is the dedup key.
    PSE_ASSIGN_OR_RETURN(TableInfo * dest, db_->GetTable(t.schema.name()));
    PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, dest->heap->Begin());
    while (!it.AtEnd()) {
      seen_keys.insert(it.row()[0]);
      PSE_RETURN_NOT_OK(it.Next());
    }
  }

  ParentRows parents;
  TableInfo* right_info = nullptr;
  if (t.source == OpPlan::Source::kJoin) {
    PSE_ASSIGN_OR_RETURN(right_info, db_->GetTable(t.right_table));
    if (ts == nullptr) {
      // Without a router nothing changes the parent side mid-copy, so one
      // scan hashes every parent for the whole copy. The parent table
      // outlives the copy phase, so a resume rebuilds the same hash.
      std::shared_lock<SharedMutex> right_lock(right_info->latch);
      PSE_RETURN_NOT_OK(HashParents(*right_info, t.right_join_pos, nullptr, &parents));
    }
  }

  const std::vector<Row>* entity_rows = nullptr;
  TableInfo* src_info = nullptr;  // scanned source; content-latched per batch
  if (t.source == OpPlan::Source::kEntity) {
    entity_rows = &data_->Rows(t.entity);
  } else {
    const std::string& src = t.source == OpPlan::Source::kScan ? t.scan_table : t.left_table;
    PSE_ASSIGN_OR_RETURN(src_info, db_->GetTable(src));
  }

  // Every batch positions the source afresh at its first unconsumed tuple;
  // no iterator lives across batches, where a router may relocate or delete
  // rows. The frontier (that tuple's packed rid) is the authoritative resume
  // point: rids are tail-append-monotone, so it stays correct when
  // concurrent DML shifts row *counts* under the cursor, and Seek reaches it
  // with one page fetch. The count-skip is the fallback for pre-frontier
  // journals and the very first batch.
  uint64_t cursor = j->targets[target_idx].src_cursor;
  auto position = [&]() -> Result<TableHeap::Iterator> {
    if (j->targets[target_idx].frontier_valid) {
      return src_info->heap->Seek(Rid::Unpack(j->targets[target_idx].frontier));
    }
    PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, src_info->heap->Begin());
    for (uint64_t skipped = 0; skipped < cursor && !it.AtEnd(); ++skipped) {
      PSE_RETURN_NOT_OK(it.Next());
    }
    return it;
  };

  for (;;) {
    // With a router attached, the whole batch — scan through journal commit —
    // serializes against foreground statements on the router's write mutex
    // (rank kLockRankDmlRouter, below every table latch taken here), so the
    // shared key sets and the frontier stay consistent with dual-applies.
    std::unique_lock<Mutex> router_lock;
    if (ts != nullptr) router_lock = std::unique_lock<Mutex>(router->write_mutex());

    // --- scan-batch: pull raw source rows. The shared content latch on the
    // scanned source covers the batch only — released before the transform,
    // the commit, and the hook so foreground statements (and the hook's own
    // queries) never stack behind a whole operator. An entity source is not
    // copied: its batch is entity rows [cursor, cursor + batch_rows), read
    // in place by the transform.
    std::vector<Row> scanned;
    size_t batch_rows = 0;
    bool exhausted = false;
    std::optional<uint64_t> next_frontier;  // a heap source's first unconsumed rid
    if (t.source == OpPlan::Source::kEntity) {
      if (cursor < t.entity_limit) {
        batch_rows = static_cast<size_t>(std::min<uint64_t>(options_.batch_rows,
                                                            t.entity_limit - cursor));
      }
      exhausted = cursor + batch_rows >= t.entity_limit;
    } else {
      scanned.reserve(options_.batch_rows);
      std::shared_lock<SharedMutex> batch_lock(src_info->latch);
      PSE_ASSIGN_OR_RETURN(TableHeap::Iterator it, position());
      // One page pin per heap page instead of one per tuple.
      PSE_RETURN_NOT_OK(it.FillBatch(options_.batch_rows, &scanned).status());
      // The iterator stops on the first unconsumed tuple: that rid is the
      // new frontier, journaled at the commit point. At end-of-source the
      // completed flag is the durable end-state instead.
      exhausted = it.AtEnd();
      if (!exhausted) next_frontier = it.rid().Pack();
      batch_rows = scanned.size();
    }
    if (batch_rows == 0) {
      // Nothing left before this batch took a row: the source was empty
      // from the start, or foreground deletes removed every row past the
      // frontier. No transform runs; the commit makes completion durable.
      j->targets[target_idx].completed = true;
      return CommitBatch();
    }

    // --- transform-batch: build entity rows through the row plan, or move
    // the scanned rows through a TupleBatch and gather destination columns
    // column-at-a-time, with no source latch held. The dedup filter is a
    // selection vector over the destination key column.
    TupleBatch src_batch;
    if (!scanned.empty()) {
      src_batch.Reset(scanned[0].size(), batch_rows);
      for (Row& r : scanned) src_batch.AppendRow(std::move(r));
    }

    std::vector<Row> staged;
    staged.reserve(batch_rows);
    TupleBatch dst_batch;
    switch (t.source) {
      case OpPlan::Source::kEntity: {
        for (size_t i = 0; i < batch_rows; ++i) {
          staged.push_back(data_->BuildRow(t.row_plan, (*entity_rows)[cursor + i]));
        }
        break;
      }
      case OpPlan::Source::kScan: {
        dst_batch.Reset(t.mapping.size(), batch_rows);
        // Mapping positions are distinct (one per destination column name),
        // so whole source columns move instead of copying value by value.
        for (size_t c = 0; c < t.mapping.size(); ++c) {
          dst_batch.col(c) = std::move(src_batch.col(t.mapping[c]));
        }
        dst_batch.SetNumRows(batch_rows);
        if (t.dedup) {
          // With a router attached the shared key set replaces the private
          // one, so keys the dual-apply already put in the destination are
          // deduped exactly like keys this loop copied itself.
          auto& key_set = ts != nullptr ? ts->keys : seen_keys;
          std::vector<uint32_t> sel;
          const std::vector<Value>& keys = dst_batch.col(0);
          for (uint32_t i = 0; i < batch_rows; ++i) {
            if (keys[i].is_null()) continue;  // dangling/unknown parent
            if (key_set.insert(keys[i]).second) sel.push_back(i);
          }
          dst_batch.SetSel(std::move(sel));
        }
        for (size_t i = 0; i < dst_batch.size(); ++i) {
          Row dst;
          dst_batch.MoveRowOut(dst_batch.SelIndex(i), &dst);
          staged.push_back(std::move(dst));
        }
        break;
      }
      case OpPlan::Source::kJoin: {
        const std::vector<Value>& jks = src_batch.col(t.left_join_pos);
        if (ts != nullptr) {
          // This batch's parents only, through the parent key's B+ tree:
          // after the source latch dropped (one table latch at a time) and
          // under the router mutex (no write lands between probe and insert).
          parents.clear();
          std::shared_lock<SharedMutex> right_lock(right_info->latch);
          PSE_RETURN_NOT_OK(ProbeParents(*right_info, t.right_join_pos, jks, &parents));
        }
        // Resolve each left row's parent once, before the join-key column
        // may be moved out by the gather below.
        std::vector<const Row*> matched(batch_rows, nullptr);
        for (size_t i = 0; i < batch_rows; ++i) {
          if (jks[i].is_null()) continue;
          auto found = parents.find(jks[i]);
          if (found != parents.end()) matched[i] = &found->second;
        }
        dst_batch.Reset(t.join_mapping.size(), batch_rows);
        for (size_t c = 0; c < t.join_mapping.size(); ++c) {
          const auto& [from_left, pos] = t.join_mapping[c];
          std::vector<Value>& out = dst_batch.col(c);
          if (from_left) {
            out = std::move(src_batch.col(pos));
          } else {
            out.reserve(batch_rows);
            for (size_t i = 0; i < batch_rows; ++i) {
              // Left outer join: anchor rows survive a missing parent.
              out.push_back(matched[i] != nullptr
                                ? (*matched[i])[pos]
                                : Value::Null(t.schema.column(c).type));
            }
          }
        }
        dst_batch.SetNumRows(batch_rows);
        for (size_t i = 0; i < batch_rows; ++i) {
          Row dst;
          dst_batch.MoveRowOut(i, &dst);
          staged.push_back(std::move(dst));
        }
        break;
      }
    }
    cursor += batch_rows;

    if (ts != nullptr && !t.dedup) {
      // Non-dedup target: a key already in the shared set was dual-applied
      // by the router (on whichever side of the frontier the write landed);
      // re-inserting it here would be the double-insert this set exists to
      // prevent. Dedup targets filtered through the set above already.
      size_t kept = 0;
      for (Row& dst : staged) {
        const Value& k = dst[ts->key_col];
        if (!k.is_null() && !ts->keys.insert(k).second) continue;
        if (&staged[kept] != &dst) staged[kept] = std::move(dst);
        ++kept;
      }
      staged.resize(kept);
    }
    // The insert batch takes the destination's exclusive content latch;
    // staging the rows until the source's shared latch drops keeps this lane
    // at one table-rank latch at a time. Holding both inverts the canonical
    // sorted-name order whenever the destination sorts before the source
    // (lockdep regression: CopyBatchHoldsOneTableLatchAtATime).
    size_t appended = 0;
    Status inserted = db_->InsertBatch(t.schema.name(), staged, &appended);
    j->targets[target_idx].dest_rows += appended;
    if (!inserted.ok()) {
      // As after a row-at-a-time loop stopped at the failed row: the keys of
      // the rows it never reached leave the shared set.
      if (ts != nullptr && !t.dedup) {
        for (size_t r = appended + 1; r < staged.size(); ++r) {
          const Value& k = staged[r][ts->key_col];
          if (!k.is_null()) ts->keys.erase(k);
        }
      }
      return inserted;
    }

    // Commit point: data + journal cursor + frontier become durable
    // together. A crash after this survives with the cursor; a crash before
    // it re-runs the batch (detected by the dest-row count disagreeing with
    // the journal). Until here the journal holds the last committed batch's
    // cursor and frontier, so a batch that fails while reading re-runs from
    // the same place. The router lock (when held) covers the commit too, so
    // the checkpoint never races a dual-apply's journal bookkeeping — only
    // the hook runs outside it (it may execute foreground DML itself).
    j->targets[target_idx].src_cursor = cursor;
    if (exhausted) j->targets[target_idx].completed = true;
    if (next_frontier) {
      j->targets[target_idx].frontier = *next_frontier;
      j->targets[target_idx].frontier_valid = true;
    }
    PSE_RETURN_NOT_OK(CommitBatch());
    ++j->batches_committed;

    uint64_t rows_copied = 0;
    for (const auto& jt : j->targets) rows_copied += jt.dest_rows;
    if (router_lock.owns_lock()) router_lock.unlock();
    PSE_RETURN_NOT_OK(FireHook(rows_copied));
    if (exhausted) return Status::OK();
  }
}

Status MigrationExecutor::RecoverTargets(const OpPlan& plan) {
  PSE_LOCKDEP_SCOPE("MigrationExecutor::RecoverTargets");
  // Recovery may drop and re-create torn targets — catalog mutations, so
  // the whole repair runs under the exclusive catalog latch.
  std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
  MigrationJournal* j = db_->mutable_migration_journal();
  for (size_t i = 0; i < plan.targets.size(); ++i) {
    const std::string& name = plan.targets[i].schema.name();
    auto info_res = db_->GetTable(name);
    if (!info_res.ok()) {
      return Status::Internal("journaled migration target '" + name +
                              "' missing from the reopened catalog");
    }
    TableInfo* info = *info_res;
    if (i < j->target_pos || j->targets[i].completed) {
      // Completed targets were checkpointed after their last batch; nothing
      // written to them since, so heap and indexes are consistent.
      continue;
    }
    // In-flight or not-yet-started target: pages flushed after the last
    // checkpoint may have left more rows (or a longer chain) than the
    // journal recorded. Count defensively and rebuild on any disagreement.
    auto counted = info->heap->CountRowsBounded(info->heap->NumPages());
    if (counted.ok() && *counted == j->targets[i].dest_rows) {
      // Heap agrees with the journal. Index trees may still trail or lead
      // the heap (they checkpoint as metadata but their pages flush
      // independently), so rebuild them from the heap.
      PSE_RETURN_NOT_OK(db_->RebuildIndexes(name));
      info->row_count = j->targets[i].dest_rows;
      continue;
    }
    // Torn state: cut the chain at the catalog's page count so the drop
    // walk cannot wander into never-written pages, then start this target
    // over from an empty table.
    PSE_RETURN_NOT_OK(info->heap->TruncateChain(info->heap->NumPages()));
    TableSchema schema = plan.targets[i].schema;
    PSE_RETURN_NOT_OK(db_->DropTable(name));
    PSE_RETURN_NOT_OK(db_->CreateTable(schema));
    PSE_RETURN_NOT_OK(EnsureSecondaryIndexes(db_, *plan.after, plan.targets[i].after_idx));
    j->targets[i].src_cursor = 0;
    j->targets[i].dest_rows = 0;
    j->targets[i].frontier = 0;
    j->targets[i].frontier_valid = false;
  }
  return CommitBatch();
}

Status MigrationExecutor::RunPhases(const OpPlan& plan, bool resume) {
  PSE_LOCKDEP_SCOPE("MigrationExecutor::RunPhases");
  MigrationJournal* j = db_->mutable_migration_journal();

  if (!resume) {
    // Phase kCreateTargets: journal the intent first, so a crash while the
    // targets are half-created still knows what to drop. The creates mutate
    // the catalog map, so they take the exclusive catalog latch — a brief
    // quiesce; the targets themselves stay invisible to readers (no query
    // binds to them) until the publish window below.
    PSE_RETURN_NOT_OK(CommitBatch());
    {
      std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
      for (const auto& t : plan.targets) {
        PSE_RETURN_NOT_OK(db_->CreateTable(t.schema));
        PSE_RETURN_NOT_OK(EnsureSecondaryIndexes(db_, *plan.after, t.after_idx));
      }
    }
    j->phase = MigrationJournal::Phase::kCopy;
    PSE_RETURN_NOT_OK(CommitBatch());
  }

  DmlRouter* router = options_.dml_router;
  if (j->phase == MigrationJournal::Phase::kCopy) {
    if (resume) {
      PSE_RETURN_NOT_OK(RecoverTargets(plan));
      // Recovery may have nuked a torn target back to empty: the router's
      // shared key sets must match the heaps again before any dual-apply.
      if (router != nullptr && router->attached()) {
        PSE_RETURN_NOT_OK(router->RebuildKeys());
      }
    }
    while (j->target_pos < j->targets.size()) {
      PSE_RETURN_NOT_OK(CopyTarget(plan, j->target_pos));
      ++j->target_pos;
      PSE_RETURN_NOT_OK(CommitBatch());
    }
    // Point of no return: every row is durably in place; from here the
    // operator only rolls forward.
    j->phase = MigrationJournal::Phase::kDropSources;
    PSE_RETURN_NOT_OK(CommitBatch());
  }

  // Quiesce window: drain in-flight readers, then drop the sources, analyze
  // the targets, and publish the post-op schema as one atomic step. A query
  // that started before this point planned against the pre-op layout and
  // has finished (the exclusive acquisition waits for it); one that starts
  // after sees the post-op layout. Nothing observes the in-between.
  std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());

  if (j->phase == MigrationJournal::Phase::kDropSources) {
    for (const std::string& name : plan.drop_tables) {
      Status s = db_->DropTable(name);
      // A resumed drop phase may find some sources already gone.
      if (!s.ok() && !s.IsNotFound()) return s;
    }
    j->phase = MigrationJournal::Phase::kFinalize;
    PSE_RETURN_NOT_OK(CommitBatch());
  }

  if (router != nullptr && router->attached()) {
    // Last write window before publish: materialize parent rows that exist
    // only as provenance (every covering source row deleted mid-copy), then
    // detach — from here the post-op schema is the single serving truth and
    // statements apply to it directly, no dual writes.
    PSE_RETURN_NOT_OK(router->BackfillProvenance());
    router->DetachOp();
  }

  for (const auto& t : plan.targets) {
    PSE_RETURN_NOT_OK(db_->Analyze(t.schema.name()));
  }
  j->Clear();
  if (options_.on_publish) options_.on_publish(*plan.after);
  // Data movement must be durable before the migration point completes, so
  // the written pages count as physical I/O even when they fit in cache.
  if (db_->persistent()) return db_->Checkpoint();
  return db_->pool()->FlushAll();
}

Result<uint64_t> MigrationExecutor::Run(const MigrationOperator& op, PhysicalSchema* schema,
                                        bool resume) {
  if (options_.batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive (0 rows per batch cannot progress)");
  }
  PhysicalSchema after = *schema;
  PSE_RETURN_NOT_OK(ApplyOperator(op, &after));
  PSE_ASSIGN_OR_RETURN(OpPlan plan, BuildPlan(op, *schema, after));

  MigrationJournal* j = db_->mutable_migration_journal();
  if (resume) {
    if (!j->active) return Status::InvalidArgument("no migration journal to resume");
    if (j->op_id != op.id || j->op_kind != static_cast<uint8_t>(op.kind)) {
      return Status::InvalidArgument("journal records op#" + std::to_string(j->op_id) +
                                     ", not op#" + std::to_string(op.id));
    }
    if (j->targets.size() != plan.targets.size()) {
      return Status::Internal("journal does not match the replanned operator");
    }
    for (size_t i = 0; i < plan.targets.size(); ++i) {
      if (!EqualsIgnoreCase(j->targets[i].table, plan.targets[i].schema.name())) {
        return Status::Internal("journal target '" + j->targets[i].table +
                                "' does not match replanned '" + plan.targets[i].schema.name() +
                                "'");
      }
    }
    if (j->phase == MigrationJournal::Phase::kCreateTargets) {
      // Targets may only partially exist; cheapest correct recovery is to
      // roll the creation back and start the operator over.
      PSE_RETURN_NOT_OK(RollbackInternal());
      return Run(op, schema, /*resume=*/false);
    }
  } else {
    // Pre-flight: every target name must be free BEFORE anything is created
    // or journaled. This keeps rollback honest — it only ever drops tables
    // this executor created, never a pre-existing table that happened to
    // collide with a target name.
    for (const auto& t : plan.targets) {
      if (db_->HasTable(t.schema.name())) {
        return Status::AlreadyExists("migration target table '" + t.schema.name() +
                                     "' already exists");
      }
    }
    j->Clear();
    j->active = true;
    j->op_id = op.id;
    j->op_kind = static_cast<uint8_t>(op.kind);
    j->phase = MigrationJournal::Phase::kCreateTargets;
    j->drop_tables = plan.drop_tables;
    for (const auto& t : plan.targets) {
      MigrationJournal::Target jt;
      jt.table = t.schema.name();
      j->targets.push_back(std::move(jt));
    }
  }

  DmlRouter* router = options_.dml_router;
  if (router != nullptr) {
    // Attach the operator so foreground DML dual-applies onto the targets
    // from the very first batch. On the fresh path the targets don't exist
    // yet (empty key sets — correct, they're created empty); on resume the
    // sets rebuild from whatever the torn heaps hold, and RunPhases rebuilds
    // them again after recovery repairs.
    std::vector<DmlRouter::TargetState> target_states;
    target_states.reserve(plan.targets.size());
    for (size_t i = 0; i < plan.targets.size(); ++i) {
      DmlRouter::TargetState ts;
      ts.table = plan.targets[i].schema.name();
      ts.after_idx = plan.targets[i].after_idx;
      ts.journal_idx = i;
      // ToTableSchema emits the anchor key as column 0 on every table.
      ts.key_col = 0;
      target_states.push_back(std::move(ts));
    }
    PSE_RETURN_NOT_OK(router->AttachOp(&after, std::move(target_states)));
  }

  io_start_ = db_->TotalIo();
  hook_io_ = 0;
  Status s = RunPhases(plan, resume);
  if (router != nullptr) router->DetachOp();  // no-op after the publish window
  if (!s.ok()) {
    uint64_t io_spent = db_->TotalIo() - io_start_ - hook_io_;
    if (options_.rollback_on_error && j->phase < MigrationJournal::Phase::kDropSources) {
      // Atomicity: an operator either fully applies or leaves no trace.
      // Best effort — if the rollback itself fails (e.g. the disk is gone)
      // the journal stays behind for the next Open to deal with.
      Status rb = RollbackInternal();
      if (!rb.ok()) {
        return Status(s.code(), s.message() + " (rollback also failed: " + rb.message() + ")");
      }
    }
    return Status(s.code(),
                  s.message() + " [op#" + std::to_string(op.id) + " io=" +
                      std::to_string(io_spent) + "]");
  }
  *schema = std::move(after);
  return db_->TotalIo() - io_start_ - hook_io_;
}

Result<uint64_t> MigrationExecutor::Apply(const MigrationOperator& op, PhysicalSchema* schema) {
  if (db_->HasPendingMigration()) {
    return Status::InvalidArgument("a migration is already journaled (op#" +
                                   std::to_string(db_->migration_journal().op_id) +
                                   "); Resume() or Rollback() it first");
  }
  return Run(op, schema, /*resume=*/false);
}

Result<uint64_t> MigrationExecutor::Resume(const MigrationOperator& op, PhysicalSchema* schema) {
  return Run(op, schema, /*resume=*/true);
}

Status MigrationExecutor::Rollback() {
  const MigrationJournal& j = db_->migration_journal();
  if (!j.active) return Status::InvalidArgument("no migration journal to roll back");
  if (j.phase >= MigrationJournal::Phase::kDropSources) {
    return Status::InvalidArgument(
        "migration already dropping its sources; it can only roll forward (Resume)");
  }
  return RollbackInternal();
}

Status MigrationExecutor::RollbackInternal() {
  PSE_LOCKDEP_SCOPE("MigrationExecutor::RollbackInternal");
  // Dropping half-built targets mutates the catalog: exclusive latch.
  std::unique_lock<SharedMutex> schema_lock(db_->schema_latch());
  MigrationJournal* j = db_->mutable_migration_journal();
  for (const auto& jt : j->targets) {
    if (!db_->HasTable(jt.table)) continue;
    PSE_ASSIGN_OR_RETURN(TableInfo * info, db_->GetTable(jt.table));
    // The heap may have grown past the last checkpoint; clamp the chain
    // before the drop walk (see RecoverTargets).
    PSE_RETURN_NOT_OK(info->heap->TruncateChain(info->heap->NumPages()));
    PSE_RETURN_NOT_OK(db_->DropTable(jt.table));
  }
  j->Clear();
  return CommitBatch();
}

Result<uint64_t> MigrationExecutor::ApplyAll(const std::vector<MigrationOperator>& ops,
                                             PhysicalSchema* schema) {
  uint64_t total = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    auto io = Apply(ops[i], schema);
    if (!io.ok()) {
      const Status& s = io.status();
      return Status(s.code(), s.message() + " (after " + std::to_string(i) + " of " +
                                  std::to_string(ops.size()) + " ops, io=" +
                                  std::to_string(total) + ")");
    }
    total += *io;
  }
  return total;
}

}  // namespace pse

// TenantShard: one tenant of the SaaS fleet — an embedded Database plus its
// write router, provenance store, and serving state, shared-nothing.
//
// Every shard walks the fleet's shared FleetSchedule (schedule.h) but owns
// its storage outright: its own buffer pool, its own catalog and latches,
// its own DmlRouter and — deliberately — its own ProvenanceStore. The store
// is per-*shard*, not per-router: a shard that crashes mid-operator resumes
// with a fresh router (the old one's attachment state died with the
// process), and DELETE-snapshot provenance captured before the crash must
// survive that router churn while never leaking into a neighbor tenant
// (tests/fleet/fleet_test.cc pins both properties).
//
// Locking: shard trajectory state (current schema + step) sits under a
// Mutex registered "shard:<id>" at kLockRankShard (6) — above the fleet
// scheduler's pick state (4), below every catalog latch (10), so the
// scheduler may inspect shard positions while picking and a shard may open
// its own catalog while advancing. The serving-visible position
// (published_step) is swapped inside the executor's exclusive-catalog
// publish window together with the ServingSchema snapshot, so foreground
// lanes reading both under the catalog latch shared never see them disagree.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/lock_registry.h"
#include "common/status.h"
#include "core/logical_database.h"
#include "core/migration_executor.h"
#include "core/rewriter_dml.h"
#include "core/serving.h"
#include "fleet/schedule.h"
#include "storage/database.h"
#include "storage/disk_manager.h"

namespace pse {

class IoTokenBucket;  // fleet/scheduler.h

/// Construction knobs for one shard.
struct ShardOptions {
  /// Buffer-pool frames of the embedded database (frames allocate lazily,
  /// so small tenants stay small).
  size_t pool_pages = 128;
  /// Backing store. Null = private in-memory pages. Pass a (fault-wrapped)
  /// FileDiskManager for a durable shard that can crash and be reopened.
  std::unique_ptr<DiskManager> disk;
};

/// \brief One tenant: embedded database + router + serving state.
class TenantShard {
 public:
  /// Creates a fresh shard at step 0: materializes `source` from `data`
  /// (which ANALYZEs each table once, after its load), and (when
  /// disk-backed) checkpoints so the shard is durable from birth. `data` is
  /// the tenant's entity-level truth and must outlive the shard
  /// (CreateTable steps load new-attribute values from it).
  static Result<std::unique_ptr<TenantShard>> Create(size_t id, const PhysicalSchema& source,
                                                     const LogicalDatabase* data,
                                                     ShardOptions options = {});

  /// Reopens a durable shard mid-trajectory after a crash. Restores the
  /// database from `disk`, locates the shard's position on `schedule` —
  /// from the journal when an operator was in flight (and rolls it forward
  /// via MigrationExecutor::Resume with a fresh router), else by matching
  /// the catalog's table set against the schedule's intermediates — and
  /// returns the shard ready to keep advancing.
  static Result<std::unique_ptr<TenantShard>> Open(size_t id, const FleetSchedule& schedule,
                                                   const LogicalDatabase* data,
                                                   std::unique_ptr<DiskManager> disk,
                                                   size_t pool_pages = 128);

  size_t id() const { return id_; }
  const std::string& name() const { return name_; }
  Database* db() { return db_.get(); }
  DmlRouter* router() { return router_.get(); }
  ServingSchema* serving() { return &serving_; }
  ProvenanceStore* provenance() { return &provenance_; }

  /// Trajectory position: ops of the shared schedule fully applied.
  size_t step() const;
  /// Position the serving snapshot reflects. Read it under the shard's
  /// catalog latch (shared) to pair it consistently with serving()->Get().
  size_t published_step() const { return published_step_.load(std::memory_order_acquire); }
  /// Copy of the shard's current (migration-side) schema.
  PhysicalSchema CurrentSchema() const;
  bool done(const FleetSchedule& schedule) const { return step() >= schedule.steps(); }

  /// Cumulative migration accounting.
  uint64_t migration_io() const { return migration_io_.load(std::memory_order_relaxed); }
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }

  /// \brief Applies the shard's next schedule operator (one step).
  ///
  /// `base` supplies batch sizing and optional user hooks (copied; the
  /// shard wires its own router and serving publish on top). While `bucket`
  /// is set, one global I/O token is held for the duration of every copy
  /// batch and returned between batches, so concurrently migrating shards
  /// never exceed the fleet budget. No-op at the end of the schedule.
  /// Callers must not advance one shard from two threads at once (the
  /// FleetScheduler's busy-marking guarantees this).
  Status AdvanceOneOp(const FleetSchedule& schedule, const MigrationOptions& base,
                      IoTokenBucket* bucket = nullptr);

 private:
  TenantShard(size_t id, std::unique_ptr<Database> db, const LogicalDatabase* data,
              PhysicalSchema schema, size_t step);

  size_t id_;
  std::string name_;
  std::unique_ptr<Database> db_;
  const LogicalDatabase* data_;
  /// Per-shard DELETE-snapshot store; outlives every router the shard makes.
  ProvenanceStore provenance_;
  std::unique_ptr<DmlRouter> router_;
  ServingSchema serving_;

  mutable Mutex state_mu_;  ///< "shard:<id>": guards schema_ and step_
  PhysicalSchema schema_;
  size_t step_ = 0;
  std::atomic<size_t> published_step_{0};
  std::atomic<uint64_t> migration_io_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace pse

// The schema snapshot that concurrent multi-version sessions serve against:
// the paper's premise that old- and new-version applications keep issuing
// statements while the schema evolves underneath them. The serve loop that
// drives those sessions is FleetScheduler::Run (fleet/scheduler.h); a single
// database serves as a fleet of one shard.
//
// The consistency contract (DESIGN.md §15): a serve lane acquires the
// database's catalog latch shared, snapshots its serving schema, and keeps
// the latch across rewrite + plan + execute. The migration executor
// publishes each operator's post-op schema from inside its exclusive-latch
// quiesce window (MigrationOptions::on_publish), so a lane's snapshot can
// never disagree with the catalog it executes against — every statement
// sees either the pre-op or the post-op layout.
#pragma once

#include <memory>
#include <mutex>

#include "common/lock_registry.h"
#include "core/physical_schema.h"

namespace pse {

/// \brief Latched holder of the schema snapshot foreground sessions serve
/// against.
///
/// Readers take a cheap shared_ptr snapshot; the migration swaps it from
/// on_publish inside the exclusive-catalog quiesce window. Callers must read
/// it while holding the database catalog latch shared (see file comment)
/// for the snapshot to be consistent with the physical catalog.
class ServingSchema {
 public:
  explicit ServingSchema(const PhysicalSchema& initial)
      : current_(std::make_shared<PhysicalSchema>(initial)) {
    // Snapshot swaps are pointer moves; nothing under this mutex may fault
    // a page, so lockdep treats any I/O under it as a violation.
    mu_.LockdepRegister("servingschema", kLockRankServing, /*allows_io=*/false);
  }

  std::shared_ptr<const PhysicalSchema> Get() const {
    std::lock_guard<Mutex> lock(mu_);
    return current_;
  }
  void Publish(const PhysicalSchema& schema) {
    auto next = std::make_shared<PhysicalSchema>(schema);
    std::lock_guard<Mutex> lock(mu_);
    current_ = std::move(next);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const PhysicalSchema> current_;
};

}  // namespace pse

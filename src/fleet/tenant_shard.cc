#include "fleet/tenant_shard.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "fleet/scheduler.h"

namespace pse {

namespace {

/// Sorted table names of a schema, comparable against Database::TableNames().
std::vector<std::string> SortedTableNames(const PhysicalSchema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.tables().size());
  for (const PhysicalTable& t : schema.tables()) names.push_back(t.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

TenantShard::TenantShard(size_t id, std::unique_ptr<Database> db, const LogicalDatabase* data,
                         PhysicalSchema schema, size_t step)
    : id_(id),
      name_("shard:" + std::to_string(id)),
      db_(std::move(db)),
      data_(data),
      router_(std::make_unique<DmlRouter>(db_.get(), &provenance_)),
      serving_(schema),
      schema_(std::move(schema)),
      step_(step),
      published_step_(step) {
  state_mu_.LockdepRegister(name_, kLockRankShard, /*allows_io=*/false);
}

Result<std::unique_ptr<TenantShard>> TenantShard::Create(size_t id, const PhysicalSchema& source,
                                                         const LogicalDatabase* data,
                                                         ShardOptions options) {
  std::unique_ptr<Database> db;
  const bool durable = options.disk != nullptr;
  if (durable) {
    Result<std::unique_ptr<Database>> opened =
        Database::Open(std::move(options.disk), options.pool_pages);
    if (!opened.ok()) return opened.status();
    db = std::move(*opened);
    if (!db->TableNames().empty()) {
      return Status::InvalidArgument("TenantShard::Create on a non-empty store; use Open");
    }
  } else {
    db = std::make_unique<Database>(options.pool_pages);
  }
  // Materialize ANALYZEs each table right after loading it; nothing writes
  // a table after its own load, so those statistics are already final.
  Status s = data->Materialize(db.get(), source);
  if (!s.ok()) return s;
  if (durable) {
    s = db->Checkpoint();
    if (!s.ok()) return s;
  }
  return std::unique_ptr<TenantShard>(
      new TenantShard(id, std::move(db), data, source, /*step=*/0));
}

Result<std::unique_ptr<TenantShard>> TenantShard::Open(size_t id, const FleetSchedule& schedule,
                                                       const LogicalDatabase* data,
                                                       std::unique_ptr<DiskManager> disk,
                                                       size_t pool_pages) {
  Result<std::unique_ptr<Database>> opened = Database::Open(std::move(disk), pool_pages);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Database> db = std::move(*opened);

  if (db->HasPendingMigration()) {
    // An operator died in flight: its journal names it, the schedule places
    // it. Roll it forward with a fresh router — the shard-owned provenance
    // store (empty after a real process crash, populated after an in-process
    // failover) outlives the router churn either way.
    const MigrationJournal& journal = db->migration_journal();
    size_t step = schedule.steps();
    for (size_t i = 0; i < schedule.steps(); ++i) {
      if (schedule.ops[i].id == journal.op_id &&
          static_cast<uint8_t>(schedule.ops[i].kind) == journal.op_kind) {
        step = i;
        break;
      }
    }
    if (step == schedule.steps()) {
      return Status::Internal("journaled operator " + std::to_string(journal.op_id) +
                              " is not on the fleet schedule");
    }
    std::unique_ptr<TenantShard> shard(
        new TenantShard(id, std::move(db), data, schedule.at(step), step));
    MigrationExecutor exec(shard->db_.get(), data);
    MigrationOptions options;
    options.dml_router = shard->router_.get();
    options.on_publish = [&shard, step](const PhysicalSchema& schema) {
      shard->serving_.Publish(schema);
      shard->published_step_.store(step + 1, std::memory_order_release);
    };
    exec.set_options(std::move(options));
    Result<uint64_t> io = exec.Resume(schedule.ops[step], &shard->schema_);
    if (!io.ok()) return io.status();
    shard->migration_io_.fetch_add(*io, std::memory_order_relaxed);
    {
      PSE_LOCKDEP_SCOPE("TenantShard::Open");
      std::lock_guard<Mutex> lock(shard->state_mu_);
      shard->step_ = step + 1;
    }
    return shard;
  }

  // No operator in flight: the catalog matches exactly one point of the
  // trajectory (every operator changes the table set).
  std::vector<std::string> names = db->TableNames();
  std::sort(names.begin(), names.end());
  for (size_t s = 0; s <= schedule.steps(); ++s) {
    if (SortedTableNames(schedule.at(s)) == names) {
      return std::unique_ptr<TenantShard>(
          new TenantShard(id, std::move(db), data, schedule.at(s), s));
    }
  }
  return Status::Internal("reopened shard's catalog matches no schedule step");
}

size_t TenantShard::step() const {
  PSE_LOCKDEP_SCOPE("TenantShard::step");
  std::lock_guard<Mutex> lock(state_mu_);
  return step_;
}

PhysicalSchema TenantShard::CurrentSchema() const {
  PSE_LOCKDEP_SCOPE("TenantShard::CurrentSchema");
  std::lock_guard<Mutex> lock(state_mu_);
  return schema_;
}

Status TenantShard::AdvanceOneOp(const FleetSchedule& schedule, const MigrationOptions& base,
                                 IoTokenBucket* bucket) {
  size_t s = 0;
  PhysicalSchema working;
  {
    PSE_LOCKDEP_SCOPE("TenantShard::AdvanceOneOp");
    std::lock_guard<Mutex> lock(state_mu_);
    s = step_;
    if (s >= schedule.steps()) return Status::OK();
    working = schema_;
  }

  MigrationExecutor exec(db_.get(), data_);
  MigrationOptions options = base;
  options.dml_router = router_.get();
  // One global token is held for the duration of every copy batch and
  // returned while the hook runs (the hook executes foreground work, not
  // migration I/O) — the bucket caps how many shards copy at once.
  bool holding = false;
  options.on_batch = [this, &base, bucket, &holding](const MigrationBatchEvent& event) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (bucket != nullptr && holding) {
      bucket->Release();
      holding = false;
    }
    Status hook = base.on_batch ? base.on_batch(event) : Status::OK();
    if (hook.ok() && bucket != nullptr) {
      bucket->Acquire();
      holding = true;
    }
    return hook;
  };
  options.on_publish = [this, &base, s](const PhysicalSchema& schema) {
    serving_.Publish(schema);
    published_step_.store(s + 1, std::memory_order_release);
    if (base.on_publish) base.on_publish(schema);
  };
  exec.set_options(std::move(options));

  if (bucket != nullptr) {
    bucket->Acquire();
    holding = true;
  }
  Result<uint64_t> io = exec.Apply(schedule.ops[s], &working);
  if (bucket != nullptr && holding) {
    bucket->Release();
    holding = false;
  }
  if (!io.ok()) return io.status();
  migration_io_.fetch_add(*io, std::memory_order_relaxed);
  {
    PSE_LOCKDEP_SCOPE("TenantShard::AdvanceOneOp");
    std::lock_guard<Mutex> lock(state_mu_);
    schema_ = std::move(working);
    step_ = s + 1;
  }
  return Status::OK();
}

}  // namespace pse

#include "fleet/scheduler.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

namespace pse {

void IoTokenBucket::Acquire() {
  PSE_LOCKDEP_SCOPE("IoTokenBucket::Acquire");
  std::unique_lock<Mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ < capacity_; });
  ++outstanding_;
  ++total_;
  peak_ = std::max(peak_, outstanding_);
}

void IoTokenBucket::Release() {
  {
    PSE_LOCKDEP_SCOPE("IoTokenBucket::Release");
    std::lock_guard<Mutex> lock(mu_);
    if (outstanding_ > 0) --outstanding_;
  }
  cv_.notify_one();
}

uint64_t IoTokenBucket::outstanding() const {
  std::lock_guard<Mutex> lock(mu_);
  return outstanding_;
}

uint64_t IoTokenBucket::peak_outstanding() const {
  std::lock_guard<Mutex> lock(mu_);
  return peak_;
}

uint64_t IoTokenBucket::total_acquired() const {
  std::lock_guard<Mutex> lock(mu_);
  return total_;
}

FleetScheduler::FleetScheduler(FleetSchedule schedule, SharedPlanCache* cache)
    : schedule_(std::move(schedule)), cache_(cache) {
  mu_.LockdepRegister("fleet", kLockRankFleet, /*allows_io=*/false);
}

void FleetScheduler::AddShard(std::unique_ptr<TenantShard> shard) {
  shards_.push_back(std::move(shard));
  busy_.push_back(0);
}

int FleetScheduler::PickNext() {
  PSE_LOCKDEP_SCOPE("FleetScheduler::PickNext");
  std::lock_guard<Mutex> lock(mu_);
  const size_t n = shards_.size();
  // Scan from the cursor so successive picks cycle the fleet.
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (rr_cursor_ + k) % n;
    if (busy_[i] != 0 || shards_[i]->step() >= schedule_.steps()) continue;
    busy_[i] = 1;
    rr_cursor_ = (i + 1) % n;
    return static_cast<int>(i);
  }
  return -1;
}

void FleetScheduler::FinishShard(size_t shard) {
  PSE_LOCKDEP_SCOPE("FleetScheduler::FinishShard");
  std::lock_guard<Mutex> lock(mu_);
  busy_[shard] = 0;
}

Result<FleetMetrics> FleetScheduler::Run(const std::vector<WorkloadQuery>& queries,
                                         const std::vector<double>& freqs,
                                         const FleetOptions& options) {
  if (shards_.empty()) return Status::InvalidArgument("fleet has no shards");
  // Serve lanes run until the migration lanes finish; with none, they would
  // never stop.
  if (options.migration_lanes == 0) {
    return Status::InvalidArgument("fleet run needs at least one migration lane");
  }
  uint64_t remaining = 0;
  uint64_t io_before = 0;
  uint64_t batches_before = 0;
  for (const auto& shard : shards_) {
    remaining += schedule_.steps() - std::min(shard->step(), schedule_.steps());
    io_before += shard->migration_io();
    batches_before += shard->batches();
  }
  const PlanCacheStats cache_before = cache_->Snapshot();

  IoTokenBucket bucket(options.io_tokens);
  std::atomic<uint64_t> remaining_ops{remaining};
  std::atomic<uint64_t> applied_ops{0};
  // A migration lane drains the fleet's remaining operators.
  BackgroundLane migrate = [&](const std::atomic<bool>& abort) -> Status {
    while (!abort.load(std::memory_order_acquire) &&
           remaining_ops.load(std::memory_order_acquire) != 0) {
      int pick = PickNext();
      if (pick < 0) {
        std::this_thread::yield();
        continue;
      }
      size_t shard = static_cast<size_t>(pick);
      Status status = shards_[shard]->AdvanceOneOp(schedule_, options.migration, &bucket);
      size_t new_step = shards_[shard]->step();
      FinishShard(shard);
      PSE_RETURN_NOT_OK(status);
      remaining_ops.fetch_sub(1, std::memory_order_acq_rel);
      applied_ops.fetch_add(1, std::memory_order_relaxed);
      if (options.on_shard_op) options.on_shard_op(shard, new_step);
    }
    return Status::OK();
  };

  ServeWindow window;
  for (const auto& shard : shards_) {
    window.targets.push_back(ServeTarget{shard->db(), shard->serving(), shard->router()});
  }
  // The published step is read under the same catalog latch as the serving
  // snapshot, so the (step, snapshot) pair is consistent and the
  // fleet-shared rewrite for that step applies verbatim.
  window.rewrite = [this](size_t t, const LogicalQuery& query, const PhysicalSchema& schema) {
    return cache_->GetOrRewrite(shards_[t]->published_step(), query, schema);
  };
  window.lanes = options.serve_lanes;
  window.min_statements_per_lane = options.min_queries_per_lane;
  window.seed = options.seed;
  window.write_fraction = options.write_fraction;
  if (options.make_write) {
    window.make_write = [this, &options](size_t t, uint64_t i, std::mt19937_64& rng) {
      return options.make_write(shards_[t]->id(), i, rng);
    };
  }
  PSE_ASSIGN_OR_RETURN(ServeMetrics served,
                       ServeWhile(window, queries, freqs,
                                  std::vector<BackgroundLane>(options.migration_lanes, migrate)));

  FleetMetrics m;
  static_cast<ServeMetrics&>(m) = served;
  m.tenants = shards_.size();
  for (const auto& shard : shards_) {
    if (shard->step() >= schedule_.steps()) ++m.tenants_migrated;
    m.migration_io += shard->migration_io();
    m.batches += shard->batches();
  }
  m.migration_io -= io_before;
  m.batches -= batches_before;
  m.ops_applied = applied_ops.load(std::memory_order_relaxed);
  const PlanCacheStats cache_after = cache_->Snapshot();
  m.plan_cache.hits = cache_after.hits - cache_before.hits;
  m.plan_cache.misses = cache_after.misses - cache_before.misses;
  m.io_capacity = bucket.capacity();
  m.io_peak_outstanding = bucket.peak_outstanding();
  return m;
}

}  // namespace pse

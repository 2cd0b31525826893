#include "fleet/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/latency_histogram.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

namespace {

using Clock = std::chrono::steady_clock;

/// One serve lane's tallies, merged serially after the lanes join.
struct LaneTally {
  LatencyHistogram latency;  // reads and writes together
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t unservable = 0;
  uint64_t unservable_writes = 0;
  uint64_t errors = 0;
  Status first_error;  // kept for the returned status message
};

}  // namespace

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
  if (freqs.size() != queries.size()) {
    return Status::InvalidArgument("serve frequency vector does not match the workload");
  }
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

  // The mix: active queries, weighted by frequency. Both versions' queries
  // land here — old ones serve throughout, new ones start serving the
  // moment their operators publish.
  std::vector<size_t> active;
  std::vector<double> query_weights;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (freqs[q] > 0) {
      active.push_back(q);
      query_weights.push_back(freqs[q]);
    }
  }
  const bool writes_on = options.write_fraction > 0 && options.make_write;

  IoTokenBucket bucket(options.io_tokens);
  std::atomic<uint64_t> remaining_ops{remaining};
  std::atomic<uint64_t> applied_ops{0};
  std::atomic<size_t> migrating{options.migration_lanes};
  std::atomic<bool> abort{false};
  std::vector<Status> migration_status(options.migration_lanes);
  std::vector<LaneTally> tallies(options.serve_lanes);

  // A migration lane drains the fleet's remaining operators.
  auto migrate = [&]() -> Status {
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

  // A serve lane issues statements until every migration lane has returned
  // and it has attempted its floor, or until a migration lane fails.
  auto serve = [&](size_t lane, LaneTally& tally) {
    if (active.empty() && !writes_on) return;
    std::mt19937_64 rng(options.seed + lane);
    std::discrete_distribution<size_t> pick_query;
    if (!active.empty()) {
      pick_query = std::discrete_distribution<size_t>(query_weights.begin(), query_weights.end());
    }
    std::uniform_int_distribution<size_t> pick_shard(0, shards_.size() - 1);
    std::bernoulli_distribution write_coin(writes_on ? options.write_fraction : 0.0);
    uint64_t lane_writes = 0;
    // The floor counts *attempts*, not successes: a window whose every
    // active statement is still unservable must not spin a lane forever.
    for (uint64_t attempts = 0;
         !abort.load(std::memory_order_acquire) &&
         (migrating.load(std::memory_order_acquire) > 0 ||
          attempts < options.min_queries_per_lane);
         ++attempts) {
      TenantShard& shard = *shards_[pick_shard(rng)];
      const bool do_write = writes_on && (active.empty() || write_coin(rng));
      const Clock::time_point t0 = Clock::now();
      Status status;
      bool unservable = false;
      if (do_write) {
        LogicalDml dml = options.make_write(shard.id(), lane_writes++, rng);
        PSE_LOCKDEP_SCOPE("FleetScheduler::Run(write)");
        // Catalog latch shared, then the router's write mutex (rank 25) and
        // table latches (rank 30) underneath — the canonical ascending order.
        std::shared_lock<SharedMutex> schema_lock(shard.db()->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = shard.serving()->Get();
        status = shard.router()->Execute(dml, *schema);
        unservable = status.IsBindError();
      } else {
        const LogicalQuery& query = queries[active[pick_query(rng)]].query;
        PSE_LOCKDEP_SCOPE("FleetScheduler::Run(read)");
        // The snapshot and the published step are read under the same latch
        // the migration publishes under, so the (step, snapshot) pair matches
        // the physical catalog and the fleet-shared rewrite for that step
        // applies verbatim (core/serving.h).
        std::shared_lock<SharedMutex> schema_lock(shard.db()->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = shard.serving()->Get();
        Result<BoundQuery> bound = cache_->GetOrRewrite(shard.published_step(), query, *schema);
        // Only the rewrite's BindError means "not servable yet"; one from
        // the planner is a real failure.
        unservable = bound.status().IsBindError();
        status = bound.status();
        if (bound.ok()) {
          DatabaseCatalogView view(shard.db());
          Result<PlanPtr> plan = PlanQuery(*bound, view);
          status = plan.ok() ? ExecutePlan(**plan, shard.db()).status() : plan.status();
        }
      }
      if (unservable) {
        ++tally.unservable;
        if (do_write) ++tally.unservable_writes;
      } else if (!status.ok()) {
        ++tally.errors;
        if (tally.first_error.ok()) tally.first_error = status;
      } else {
        if (do_write) {
          ++tally.writes;
        } else {
          ++tally.queries;
        }
        tally.latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
      }
    }
  };

  // Migration lanes take the low indices. Lanes 1.. each get a thread of
  // their own; lane 0 runs on the caller's.
  auto run_lane = [&](size_t lane) {
    if (lane >= options.migration_lanes) {
      serve(lane, tallies[lane - options.migration_lanes]);
      return;
    }
    Status s = migrate();
    if (!s.ok()) {
      migration_status[lane] = std::move(s);
      abort.store(true, std::memory_order_release);
    }
    migrating.fetch_sub(1, std::memory_order_acq_rel);
  };
  const Clock::time_point start = Clock::now();
  {
    // A jthread joins when it is destroyed, so every lane has returned when
    // this scope ends, also if the caller's lane throws.
    std::vector<std::jthread> threads;
    for (size_t lane = 1; lane < options.migration_lanes + options.serve_lanes; ++lane) {
      threads.emplace_back(run_lane, lane);
    }
    run_lane(0);
  }

  FleetMetrics m;
  m.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  LatencyHistogram latency;
  Status first_error;
  for (const LaneTally& t : tallies) {
    m.queries += t.queries;
    m.writes += t.writes;
    m.unservable += t.unservable;
    m.unservable_writes += t.unservable_writes;
    m.errors += t.errors;
    if (first_error.ok()) first_error = t.first_error;
    latency.Merge(t.latency);
  }
  for (const Status& s : migration_status) {
    if (!s.ok()) return s;
  }
  if (m.errors > 0) {
    return Status(first_error.code(),
                  "foreground session failed during migration: " + first_error.message() +
                      " (" + std::to_string(m.errors) + " errors)");
  }
  if (m.wall_ms > 0) {
    m.throughput_qps = static_cast<double>(m.queries + m.writes) / (m.wall_ms / 1000.0);
  }
  m.p50_ms = static_cast<double>(latency.Quantile(0.50)) / 1e6;
  m.p95_ms = static_cast<double>(latency.Quantile(0.95)) / 1e6;
  m.p99_ms = static_cast<double>(latency.Quantile(0.99)) / 1e6;
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

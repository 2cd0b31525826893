#include "fleet/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Sorted-sample percentile (same interpolation as core/serving.cc).
double Percentile(const std::vector<double>& sorted, double q) {
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

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

const char* FleetPolicyName(FleetPolicy policy) {
  switch (policy) {
    case FleetPolicy::kRoundRobin:
      return "round-robin";
    case FleetPolicy::kLaggardFirst:
      return "laggard-first";
    case FleetPolicy::kHotTenantDeferred:
      return "hot-tenant-deferred";
  }
  return "unknown";
}

/// Per-lane tallies, merged serially after the pool joins (gtest-unsafe
/// assertions never run inside workers — same discipline as core serving).
struct FleetScheduler::LaneResult {
  std::vector<double> latencies_ms;
  uint64_t writes = 0;
  uint64_t unservable = 0;
  uint64_t unservable_writes = 0;
  uint64_t errors = 0;
  Status first_error;
};

FleetScheduler::FleetScheduler(FleetSchedule schedule, SharedPlanCache* cache)
    : schedule_(std::move(schedule)), cache_(cache) {
  mu_.LockdepRegister("fleet", kLockRankFleet, /*allows_io=*/false);
}

void FleetScheduler::AddShard(std::unique_ptr<TenantShard> shard) {
  shards_.push_back(std::move(shard));
  busy_.push_back(0);
}

int FleetScheduler::PickNext(const FleetOptions& options) {
  PSE_LOCKDEP_SCOPE("FleetScheduler::PickNext");
  std::lock_guard<Mutex> lock(mu_);
  const size_t n = shards_.size();
  int best = -1;
  double best_key = 0;
  size_t best_step = 0;
  for (size_t k = 0; k < n; ++k) {
    // Round-robin scans from the cursor so successive picks cycle the
    // fleet; the other policies scan all shards and keep the best.
    size_t i = options.policy == FleetPolicy::kRoundRobin ? (rr_cursor_ + k) % n : k;
    if (busy_[i] != 0) continue;
    size_t step = shards_[i]->step();
    if (step >= schedule_.steps()) continue;
    if (options.policy == FleetPolicy::kRoundRobin) {
      best = static_cast<int>(i);
      break;
    }
    double key = options.policy == FleetPolicy::kLaggardFirst
                     ? static_cast<double>(step)
                     : (i < options.hotness.size() ? options.hotness[i] : 1.0);
    // Ties break toward the laggard, then the lower id — deterministic and
    // starvation-free (a deferred hot tenant is picked once it is the only
    // eligible shard left).
    if (best < 0 || key < best_key || (key == best_key && step < best_step)) {
      best = static_cast<int>(i);
      best_key = key;
      best_step = step;
    }
  }
  if (best >= 0) {
    busy_[static_cast<size_t>(best)] = 1;
    if (options.policy == FleetPolicy::kRoundRobin) {
      rr_cursor_ = (static_cast<size_t>(best) + 1) % n;
    }
  }
  return best;
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
    return Status::InvalidArgument("fleet frequency vector does not match the workload");
  }
  if (!options.hotness.empty() && options.hotness.size() != shards_.size()) {
    return Status::InvalidArgument("fleet hotness vector does not match the shard count");
  }
  const size_t n = shards_.size();

  std::vector<size_t> active;
  std::vector<double> weights;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (freqs[q] > 0) {
      active.push_back(q);
      weights.push_back(freqs[q]);
    }
  }
  std::vector<double> shard_weights = options.hotness;
  if (shard_weights.empty()) shard_weights.assign(n, 1.0);

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
  std::atomic<bool> abort{false};
  Status migrate_error;
  Mutex error_mu;  // plain data guard; deliberately unranked (leaf, error path)

  const size_t lanes = options.migration_lanes + options.serve_lanes;
  std::vector<LaneResult> results(lanes);

  Clock::time_point window_start = Clock::now();
  ThreadPool pool(lanes);
  pool.ParallelFor(lanes, [&](size_t lane) {
    if (lane < options.migration_lanes) {
      // -- migration lane: drain the fleet's remaining operators --
      while (!abort.load(std::memory_order_acquire) &&
             remaining_ops.load(std::memory_order_acquire) != 0) {
        int pick = PickNext(options);
        if (pick < 0) {
          std::this_thread::yield();
          continue;
        }
        size_t shard = static_cast<size_t>(pick);
        Status status = shards_[shard]->AdvanceOneOp(schedule_, options.migration, &bucket);
        size_t new_step = shards_[shard]->step();
        FinishShard(shard);
        if (!status.ok()) {
          {
            std::lock_guard<Mutex> lock(error_mu);
            if (migrate_error.ok()) migrate_error = status;
          }
          abort.store(true, std::memory_order_release);
          break;
        }
        remaining_ops.fetch_sub(1, std::memory_order_acq_rel);
        applied_ops.fetch_add(1, std::memory_order_relaxed);
        if (options.on_shard_op) options.on_shard_op(shard, new_step);
      }
      return;
    }

    // -- serve lane: mixed-version foreground traffic across the fleet --
    LaneResult& r = results[lane];
    const bool writes_on = options.write_fraction > 0 && options.make_write;
    if (active.empty() && !writes_on) return;
    std::mt19937_64 rng(options.seed + lane);
    std::discrete_distribution<size_t> pick_query;
    if (!active.empty()) {
      pick_query = std::discrete_distribution<size_t>(weights.begin(), weights.end());
    }
    std::discrete_distribution<size_t> pick_shard(shard_weights.begin(), shard_weights.end());
    std::bernoulli_distribution write_coin(writes_on ? options.write_fraction : 0.0);
    uint64_t lane_writes = 0;
    uint64_t attempts = 0;
    while (!abort.load(std::memory_order_acquire) &&
           (remaining_ops.load(std::memory_order_acquire) != 0 ||
            attempts < options.min_queries_per_lane)) {
      ++attempts;
      TenantShard* shard = shards_[pick_shard(rng)].get();
      const bool do_write = writes_on && (active.empty() || write_coin(rng));
      Clock::time_point t0 = Clock::now();
      Status failed;
      bool ran = false;
      if (do_write) {
        LogicalDml dml = options.make_write(shard->id(), lane_writes++, rng);
        PSE_LOCKDEP_SCOPE("FleetScheduler::serve_write");
        // Shard catalog latch shared, then the shard's router write mutex
        // (25) and table latches (30) underneath — single-database serving
        // discipline, per shard.
        std::shared_lock<SharedMutex> schema_lock(shard->db()->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = shard->serving()->Get();
        Status status = shard->router()->Execute(dml, *schema);
        if (!status.ok()) {
          if (status.IsBindError()) {
            ++r.unservable;
            ++r.unservable_writes;
            continue;
          }
          failed = status;
        } else {
          ran = true;
        }
      } else {
        const LogicalQuery& query = queries[active[pick_query(rng)]].query;
        PSE_LOCKDEP_SCOPE("FleetScheduler::serve_read");
        // The published step is read under the same catalog latch as the
        // serving snapshot, so the (step, snapshot) pair is consistent and
        // the fleet-shared rewrite for that step applies verbatim.
        std::shared_lock<SharedMutex> schema_lock(shard->db()->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = shard->serving()->Get();
        size_t step = shard->published_step();
        Result<BoundQuery> bound = cache_->GetOrRewrite(step, query, *schema);
        if (!bound.ok()) {
          if (bound.status().IsBindError()) {
            ++r.unservable;
            continue;
          }
          failed = bound.status();
        } else {
          DatabaseCatalogView view(shard->db());
          Result<PlanPtr> plan = PlanQuery(*bound, view);
          if (!plan.ok()) {
            failed = plan.status();
          } else {
            Status status = ExecutePlan(**plan, shard->db()).status();
            if (!status.ok()) {
              failed = status;
            } else {
              ran = true;
            }
          }
        }
      }
      if (!ran) {
        ++r.errors;
        if (r.first_error.ok()) r.first_error = failed;
        continue;
      }
      if (do_write) ++r.writes;
      r.latencies_ms.push_back(MsSince(t0));
    }
  });

  FleetMetrics m;
  m.wall_ms = MsSince(window_start);
  m.tenants = n;
  for (const auto& shard : shards_) {
    if (shard->step() >= schedule_.steps()) ++m.tenants_migrated;
    m.migration_io += shard->migration_io();
    m.batches += shard->batches();
  }
  m.migration_io -= io_before;
  m.batches -= batches_before;
  m.ops_applied = applied_ops.load(std::memory_order_relaxed);
  std::vector<double> all;
  Status first_error;
  for (const LaneResult& r : results) {
    m.queries += r.latencies_ms.size() - r.writes;
    m.writes += r.writes;
    m.unservable += r.unservable;
    m.unservable_writes += r.unservable_writes;
    m.errors += r.errors;
    if (first_error.ok() && !r.first_error.ok()) first_error = r.first_error;
    all.insert(all.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  if (m.wall_ms > 0) {
    m.throughput_qps = static_cast<double>(m.queries + m.writes) / (m.wall_ms / 1000.0);
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    m.p50_ms = Percentile(all, 0.50);
    m.p95_ms = Percentile(all, 0.95);
    m.p99_ms = Percentile(all, 0.99);
  }
  const PlanCacheStats cache_after = cache_->Snapshot();
  m.plan_cache.hits = cache_after.hits - cache_before.hits;
  m.plan_cache.misses = cache_after.misses - cache_before.misses;
  m.io_capacity = bucket.capacity();
  m.io_peak_outstanding = bucket.peak_outstanding();

  if (!migrate_error.ok()) return migrate_error;
  if (m.errors > 0) {
    return Status(first_error.code(),
                  "fleet foreground session failed during migration: " + first_error.message() +
                      " (" + std::to_string(m.errors) + " errors)");
  }
  return m;
}

}  // namespace pse

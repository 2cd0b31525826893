#include "core/serving.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <shared_mutex>
#include <thread>

#include "common/latency_histogram.h"
#include "common/lock_registry.h"
#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"

namespace pse {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One serve lane's tallies, merged serially after the lanes join (gtest
/// assertions never run inside lanes).
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

Result<ServeMetrics> ServeWhile(const ServeWindow& window,
                                const std::vector<WorkloadQuery>& queries,
                                const std::vector<double>& freqs,
                                const std::vector<BackgroundLane>& background) {
  if (freqs.size() != queries.size()) {
    return Status::InvalidArgument("serve frequency vector does not match the workload");
  }
  if (window.targets.empty() || !window.rewrite) {
    return Status::InvalidArgument("serve window needs targets and a read rewrite");
  }
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
  const bool writes_on =
      window.write_fraction > 0 && window.make_write &&
      std::all_of(window.targets.begin(), window.targets.end(),
                  [](const ServeTarget& t) { return t.router != nullptr; });

  std::vector<LaneTally> tallies(window.lanes);
  std::vector<Status> background_status(background.size());
  std::atomic<size_t> running{background.size()};
  std::atomic<bool> abort{false};

  // Background lanes take the low indices. Lanes 1.. each get a thread of
  // their own; lane 0 runs on the caller's.
  const size_t lanes = background.size() + window.lanes;
  auto run_lane = [&](size_t lane) {
    if (lane < background.size()) {
      Status s = background[lane](abort);
      if (!s.ok()) {
        background_status[lane] = std::move(s);
        abort.store(true, std::memory_order_release);
      }
      running.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    LaneTally& tally = tallies[lane - background.size()];
    if (active.empty() && !writes_on) return;
    std::mt19937_64 rng(window.seed + lane);
    std::discrete_distribution<size_t> pick_query;
    if (!active.empty()) {
      pick_query = std::discrete_distribution<size_t>(query_weights.begin(), query_weights.end());
    }
    std::uniform_int_distribution<size_t> pick_target(0, window.targets.size() - 1);
    std::bernoulli_distribution write_coin(writes_on ? window.write_fraction : 0.0);
    uint64_t lane_writes = 0;
    // The floor counts *attempts*, not successes: a window whose every
    // active statement is still unservable must not spin a lane forever.
    for (uint64_t attempts = 0;
         !abort.load(std::memory_order_acquire) &&
         (running.load(std::memory_order_acquire) > 0 ||
          attempts < window.min_statements_per_lane);
         ++attempts) {
      // A single target draws nothing, so a one-database window's mix is
      // the same sequence it would be without a target pick.
      const size_t t = window.targets.size() == 1 ? 0 : pick_target(rng);
      const ServeTarget& target = window.targets[t];
      const bool do_write = writes_on && (active.empty() || write_coin(rng));
      const Clock::time_point t0 = Clock::now();
      Status status;
      bool unservable = false;
      if (do_write) {
        LogicalDml dml = window.make_write(t, lane_writes++, rng);
        PSE_LOCKDEP_SCOPE("ServeWhile::write");
        // Catalog latch shared, then the router's write mutex (rank 25) and
        // table latches (rank 30) underneath — the canonical ascending order.
        std::shared_lock<SharedMutex> schema_lock(target.db->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = target.serving->Get();
        status = target.router->Execute(dml, *schema);
        unservable = status.IsBindError();
      } else {
        const LogicalQuery& query = queries[active[pick_query(rng)]].query;
        PSE_LOCKDEP_SCOPE("ServeWhile::read");
        // The snapshot is taken under the same latch the migration publishes
        // under, so it always matches the physical catalog (serving.h).
        std::shared_lock<SharedMutex> schema_lock(target.db->schema_latch());
        std::shared_ptr<const PhysicalSchema> schema = target.serving->Get();
        Result<BoundQuery> bound = window.rewrite(t, query, *schema);
        // Only the rewrite's BindError means "not servable yet"; one from
        // the planner is a real failure.
        unservable = bound.status().IsBindError();
        status = bound.status();
        if (bound.ok()) {
          DatabaseCatalogView view(target.db);
          Result<PlanPtr> plan = PlanQuery(*bound, view);
          status = plan.ok() ? ExecutePlan(**plan, target.db).status() : plan.status();
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
  Clock::time_point window_start = Clock::now();
  {
    // A jthread joins when it is destroyed, so every lane has returned when
    // this scope ends, also if the caller's lane throws.
    std::vector<std::jthread> threads;
    for (size_t lane = 1; lane < lanes; ++lane) threads.emplace_back(run_lane, lane);
    if (lanes > 0) run_lane(0);
  }

  ServeMetrics m;
  m.wall_ms = MsSince(window_start);
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
  if (m.wall_ms > 0) {
    m.throughput_qps = static_cast<double>(m.queries + m.writes) / (m.wall_ms / 1000.0);
  }
  m.p50_ms = static_cast<double>(latency.Quantile(0.50)) / 1e6;
  m.p95_ms = static_cast<double>(latency.Quantile(0.95)) / 1e6;
  m.p99_ms = static_cast<double>(latency.Quantile(0.99)) / 1e6;
  for (const Status& s : background_status) {
    if (!s.ok()) return s;
  }
  if (m.errors > 0) {
    return Status(first_error.code(),
                  "foreground session failed during migration: " + first_error.message() +
                      " (" + std::to_string(m.errors) + " errors)");
  }
  return m;
}

Result<ServeMetrics> ServeDuringMigration(Database* db, ServingSchema* serving,
                                          const std::vector<WorkloadQuery>& queries,
                                          const std::vector<double>& freqs,
                                          const ServeOptions& options,
                                          const std::function<Status()>& migrate) {
  if (options.sessions == 0) {
    return Status::InvalidArgument("serve window needs at least one session");
  }
  ServeWindow window;
  window.targets = {ServeTarget{db, serving, options.router}};
  window.rewrite = [](size_t, const LogicalQuery& query, const PhysicalSchema& schema) {
    return RewriteQuery(query, schema);
  };
  window.lanes = options.sessions;
  window.min_statements_per_lane = options.min_queries_per_lane;
  window.seed = options.seed;
  window.write_fraction = options.write_fraction;
  if (options.make_write) {
    window.make_write = [&options](size_t, uint64_t i, std::mt19937_64& rng) {
      return options.make_write(i, rng);
    };
  }
  return ServeWhile(window, queries, freqs,
                    {[&migrate](const std::atomic<bool>&) { return migrate(); }});
}

}  // namespace pse

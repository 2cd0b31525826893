// pse_benchmark: TPC-W tenant fleets migrating under closed-loop
// two-version traffic, plus the paper's planner, timed from outside.
//
//   pse_benchmark --workload NAME [--seed N] [--trace 0|1] [--trace-out PATH]
//
// Workloads (README.md says why each exists). A run repeats short rounds for
// kWindowS, after a warm-up round. A serving round is a fresh set-up, a
// client window and a rollout of the fleet:
//   fleet-rollout  64 small tenants, data larger than each tenant's pool,
//                  Shopping mix; the window is the fleet's rollout
//   tenant-large   one large tenant, data larger than its pool, read-only;
//                  a 1.5 s window, then its rollout
//   steady-write   36 tenants parked on every step, data fits, Ordering mix;
//                  a 1.5 s window, then the rollout
//   plan-fig8      a round is a set-up, 100 LAA + GAA planning passes over
//                  TPC-W 100MB(1:20) and Fig 9, and three Pro-Schema
//                  simulations of Fig 8(a)
//
// Every timing is reported at the host's reference pace (pace.h): each
// thread is pinned to a vCPU, and a timing is divided by the pace of the
// vCPUs that did the work, taken just before and after it.
//
// Prints one `workload metric value unit` line per metric and, as the last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics when untraced, the per-layer metrics when traced. A
// failed output check prints correct=false with no metrics and exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mapping.h"
#include "core/migration_planner.h"
#include "core/simulation.h"
#include "engine/cost_cache.h"
#include "pace.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/workloads.h"
#include "trace.h"
#include "traffic.h"

namespace psebench {
namespace {

// Seconds a run measures: BENCHMARK.json's run_seconds, the only --seconds
// run.sh accepts. A run repeats rounds until this much time has passed, and
// reports each metric measured per round as the median over its rounds.
// The first round only warms the process up: its output checks count, its
// timings do not.
constexpr double kWindowS = 25;
constexpr size_t kMinRounds = 4;
constexpr size_t kPassesPerRound = 100;  // plan-fig8; enough for a round's p90
constexpr size_t kWarmupPasses = 10;     // plan-fig8's warm-up round
// plan-fig8's simulations per round: one takes 0.3-0.5 s, and the run's
// median needs more of them than its five or so rounds give.
constexpr size_t kSimsPerRound = 3;
constexpr double kOverallCostPages = 107060;  // EXPERIMENTS.md Fig 8(a), Pro-Schema

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics of BENCHMARK.json, in its order. Every workload reports every
// end-to-end metric; a traced run reports every per-layer metric, 0 where
// the layer does no work in that workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"rollout_s", "s"}, {"ops_per_s", "1/s"},
    {"op_typical_ms", "ms"},  {"op_p90_ms", "ms"}, {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"storage.latch_self_pct", "%"},
    {"storage.pool_hit_pct", "%"},
    {"storage.page_io_per_op", "count"},
    {"storage.pages_per_tenant", "count"},
    {"fleet.snapshot_self_pct", "%"},
    {"fleet.rewrite_self_pct", "%"},
    {"fleet.plan_cache_hit_pct", "%"},
    {"fleet.ops_applied", "count"},
    {"fleet.io_peak_outstanding", "count"},
    {"engine.plan_self_pct", "%"},
    {"engine.exec_self_pct", "%"},
    {"migration.batches", "count"},
    {"migration.pages", "count"},
    {"migration.rows_per_s", "1/s"},
    {"migration.batch_share_pct", "%"},
    {"dml.exec_self_pct", "%"},
    {"dml.fragment_writes_per_stmt", "count"},
    {"dml.dual_applied_pct", "%"},
    {"dml.unservable_pct", "%"},
    {"rewrite.unservable_pct", "%"},
    {"planner.laa_self_pct", "%"},
    {"planner.gaa_self_pct", "%"},
    {"planner.laa_schemas_evaluated", "count"},
    {"planner.gaa_evaluations", "count"},
    {"planner.cost_cache_hit_pct", "%"},
    {"sim.query_pages", "count"},
    {"sim.migration_pages", "count"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
};

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Whether one more round, as long as the average of the `rounds` rounds
/// run since `rounds_start_ns`, would end more than kWindowS after the
/// run's start.
bool TimeIsUp(int64_t run_start_ns, int64_t rounds_start_ns, size_t rounds) {
  const int64_t now = NowNs();
  const int64_t average =
      (now - rounds_start_ns) / static_cast<int64_t>(std::max<size_t>(rounds, 1));
  return now + average > run_start_ns + static_cast<int64_t>(kWindowS * 1e9);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A wall time taken at the reference pace, from the paces of its vCPUs
/// just before and just after it.
double AtPace(double wall, double pace_before, double pace_after) {
  return wall / ((pace_before + pace_after) / 2);
}

/// Linearly interpolated quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// Whether at least ten of `n` samples lie beyond quantile `q`.
bool EnoughBeyond(size_t n, double q) {
  // The epsilon keeps 100 * (1 - 0.9) from flooring to 9.
  return std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9) >= 10;
}

/// The process's resident-size high-water mark, in MiB. Runs report it as
/// it stands after the warm-up round: the peak of one round in a fresh
/// process. Later rounds reuse the memory the process kept, and how well
/// they fit into it varies from run to run (0.06-0.18 spread).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Pct(double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0.0; }

/// Collects metric values and check failures, then prints them.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, size_t samples = 0) {
    values_[name] = {value, samples};
  }
  /// Adds the median over rounds of quantile `q` of each round's samples. A
  /// round with fewer than ten samples beyond its quantile fails the run
  /// (the percentile guard).
  void AddQuantile(const std::string& name, const std::vector<std::vector<double>>& rounds,
                   double q) {
    std::vector<double> per_round;
    size_t samples = 0;
    for (std::vector<double> v : rounds) {
      if (!EnoughBeyond(v.size(), q)) {
        Fail(name + ": a round has " + std::to_string(v.size()) +
             " samples, fewer than ten beyond its quantile");
        return;
      }
      std::sort(v.begin(), v.end());
      per_round.push_back(Quantile(v, q));
      samples += v.size();
    }
    Add(name, Median(per_round), samples);
  }
  /// Adds the median over rounds of each round's typical latency: the median
  /// latency of each sample's shape (`shapes` parallel to the samples),
  /// averaged over the samples, so every shape counts by its share of the
  /// mix. The plain median would not do: a mix of twenty query shapes puts
  /// it on the boundary between two shapes, where it jumps from run to run.
  /// A shape's median moves only with that shape, and ignores the minority
  /// of samples a concurrent scan happened to delay.
  void AddTypical(const std::string& name, const std::vector<std::vector<double>>& rounds,
                  const std::vector<std::vector<uint32_t>>& shapes) {
    std::vector<double> per_round;
    size_t samples = 0;
    for (size_t r = 0; r < rounds.size(); ++r) {
      const std::vector<double>& v = rounds[r];
      if (!EnoughBeyond(v.size(), 0.5)) {
        Fail(name + ": a round has only " + std::to_string(v.size()) + " samples");
        return;
      }
      std::map<uint32_t, std::vector<double>> by_shape;
      for (size_t i = 0; i < v.size(); ++i) by_shape[shapes[r][i]].push_back(v[i]);
      double sum = 0;
      for (const auto& [shape, w] : by_shape) sum += static_cast<double>(w.size()) * Median(w);
      per_round.push_back(sum / static_cast<double>(v.size()));
      samples += v.size();
    }
    Add(name, Median(per_round), samples);
  }
  /// Prints a descriptive layer quantile that is not in BENCHMARK.json ("-"
  /// when too few samples lie beyond it).
  void Describe(const std::string& name, std::vector<double> samples, double q) {
    std::string value = "-";
    if (EnoughBeyond(samples.size(), q)) {
      std::sort(samples.begin(), samples.end());
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", Quantile(samples, q));
      value = buf;
    }
    described_.push_back(workload_ + " " + name + " " + value + " ms samples=" +
                         std::to_string(samples.size()));
  }
  /// Prints, after the end-to-end metrics, the median and range of the
  /// paces the timings were divided by: a timing times its pace is its
  /// wall time.
  void NotePaces(std::vector<double> paces) {
    std::sort(paces.begin(), paces.end());
    if (paces.empty()) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s host.pace %.4g x min=%.4g max=%.4g samples=%zu",
                  workload_.c_str(), Median(paces), paces.front(), paces.back(), paces.size());
    pace_note_ = buf;
  }
  void Fail(const std::string& why) { failures_.push_back(why); }

  /// Prints the metric lines and the final JSON line; returns the exit code.
  int Finish(bool trace, uint64_t attempted, uint64_t failed) {
    for (const MetricDef& m : kEndToEnd) {
      if (failures_.empty() && values_.count(m.name) == 0) {
        Fail(std::string("no value for ") + m.name);
      }
    }
    std::string json;
    if (failures_.empty()) {
      auto emit = [&](const MetricDef& m, bool in_json) {
        const Value v = values_.count(m.name) != 0 ? values_[m.name] : Value{};
        std::printf("%s %s %.6g %s", workload_.c_str(), m.name, v.value, m.unit);
        if (v.samples > 0) std::printf(" samples=%zu", v.samples);
        std::printf("\n");
        if (!in_json) return;
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", m.name, v.value, m.unit);
        json += buf;
      };
      for (const MetricDef& m : kEndToEnd) emit(m, !trace);
      if (!pace_note_.empty()) std::printf("%s\n", pace_note_.c_str());
      if (trace) {
        for (const MetricDef& m : kPerLayer) emit(m, true);
        for (const std::string& line : described_) std::printf("%s\n", line.c_str());
      }
    }
    for (const std::string& f : failures_) {
      std::printf("%s CHECK-FAILED %s\n", workload_.c_str(), f.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                failures_.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json.c_str());
    std::fflush(stdout);
    return failures_.empty() ? 0 : 1;
  }

 private:
  struct Value {
    double value = 0;
    size_t samples = 0;
  };
  std::string workload_;
  std::map<std::string, Value> values_;
  std::vector<std::string> described_;
  std::string pace_note_;
  std::vector<std::string> failures_;
};

/// Times the migration lanes from their callbacks: operator spans between
/// one lane's on_shard_op calls, batch spans between one operator's
/// on_batch events, publish instants. Each lane only touches its own state;
/// the mutex guards the lane table.
class MigrationObserver {
 public:
  MigrationObserver(Tracer* tracer, uint64_t run_span) : tracer_(tracer), run_span_(run_span) {}

  /// Installs the callbacks; the run is taken to start now.
  void Wire(pse::FleetOptions* options) {
    start_ns_ = NowNs();
    options->on_shard_op = [this](size_t, size_t) { OnOp(); };
    options->migration.on_batch = [this](const pse::MigrationBatchEvent& e) {
      OnBatch(e.rows_copied);
      return pse::Status::OK();
    };
    options->migration.on_publish = [this](const pse::PhysicalSchema&) {
      Lane* l = Current();
      if (l->buffer != nullptr) l->buffer->Instant("publish", l->op_id, NowNs());
    };
  }

  /// Merged over every lane; valid once the run returned.
  std::vector<double> op_ms, batch_ms;
  uint64_t rows = 0;

  void Collect() {
    for (auto& [id, lane] : lanes_) {
      op_ms.insert(op_ms.end(), lane->op_ms.begin(), lane->op_ms.end());
      batch_ms.insert(batch_ms.end(), lane->batch_ms.begin(), lane->batch_ms.end());
      rows += lane->rows;
    }
  }

 private:
  struct Lane {
    Tracer::Buffer* buffer = nullptr;
    int64_t op_start = 0;
    int64_t last_batch = 0;
    uint64_t op_id = 0;
    uint64_t op_rows = 0;
    uint64_t rows = 0;
    std::vector<double> op_ms, batch_ms;
  };

  Lane* Current() {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Lane>& lane = lanes_[std::this_thread::get_id()];
    if (lane == nullptr) {
      lane = std::make_unique<Lane>();
      lane->buffer = tracer_->NewBuffer();
      lane->op_start = lane->last_batch = start_ns_;
      if (lane->buffer != nullptr) lane->op_id = lane->buffer->NewId();
    }
    return lane.get();
  }

  void OnBatch(uint64_t rows_copied) {
    Lane* l = Current();
    const int64_t now = NowNs();
    l->batch_ms.push_back(static_cast<double>(now - l->last_batch) / 1e6);
    if (l->buffer != nullptr) {
      l->buffer->Add("batch", l->buffer->NewId(), l->op_id, l->last_batch, now);
    }
    l->last_batch = now;
    l->op_rows = rows_copied;
  }

  void OnOp() {
    Lane* l = Current();
    const int64_t now = NowNs();
    l->op_ms.push_back(static_cast<double>(now - l->op_start) / 1e6);
    if (l->buffer != nullptr) {
      l->buffer->Add("op", l->op_id, run_span_, l->op_start, now);
      l->op_id = l->buffer->NewId();
    }
    l->rows += l->op_rows;
    l->op_rows = 0;
    l->op_start = l->last_batch = now;
  }

  Tracer* tracer_;
  uint64_t run_span_;
  int64_t start_ns_ = 0;
  std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<Lane>> lanes_;
};

/// Storage, write-path and plan-cache counters summed over every tenant.
struct Counters {
  uint64_t hits = 0, misses = 0, page_io = 0, pages = 0;
  uint64_t dml_statements = 0, fragment_writes = 0, dual_applied = 0;
  pse::PlanCacheStats cache;
};

Counters Snapshot(Fleet* fleet) {
  Counters c;
  for (size_t t = 0; t < fleet->scheduler->size(); ++t) {
    pse::TenantShard* shard = fleet->scheduler->shard(t);
    const pse::BufferPoolStats& pool = shard->db()->pool()->stats();
    c.hits += pool.hits.load(std::memory_order_relaxed);
    c.misses += pool.misses.load(std::memory_order_relaxed);
    const pse::IoStats& io = shard->db()->disk()->stats();
    c.page_io += io.TotalIo();
    c.pages += io.pages_allocated.load(std::memory_order_relaxed);
    const pse::DmlStats& dml = shard->router()->stats();
    c.dml_statements += dml.statements;
    c.fragment_writes += dml.fragment_writes;
    c.dual_applied += dml.dual_applied;
  }
  c.cache = fleet->cache->Snapshot();
  return c;
}

/// Per span name: self time as a share of the total time of the `root`
/// spans, and every duration. The root's own share is the unattributed time.
struct Breakdown {
  std::map<std::string, double> self_pct;
  std::map<std::string, std::vector<double>> durations_ms;

  double SelfPct(const std::string& name) const {
    auto it = self_pct.find(name);
    return it == self_pct.end() ? 0.0 : it->second;
  }
  std::vector<double> Durations(const std::string& name) const {
    auto it = durations_ms.find(name);
    return it == durations_ms.end() ? std::vector<double>{} : it->second;
  }
};

Breakdown Analyze(const std::vector<Span>& spans, const std::string& root) {
  std::vector<std::pair<std::string, SpanTotals>> totals = SummarizeSpans(spans);
  double root_ms = 0;
  for (const auto& [name, t] : totals) {
    if (name == root) root_ms = t.total_ms;
  }
  Breakdown b;
  for (auto& [name, t] : totals) {
    b.self_pct[name] = Pct(t.self_ms, root_ms);
    b.durations_ms[name] = std::move(t.durations_ms);
  }
  return b;
}

/// Adds the trace's own metrics. The overhead is measured: the share of the
/// untraced rate of work that the traced parts of the same run lost.
void AddTraceMetrics(const std::vector<Span>& spans, const Breakdown& b, const std::string& root,
                     double traced_rate, double untraced_rate, Report* report) {
  const double unattributed = b.SelfPct(root);
  report->Add("trace.unattributed_pct", unattributed);
  report->Add("trace.overhead_pct", 100.0 - Pct(traced_rate, untraced_rate));
  report->Add("trace.spans", static_cast<double>(spans.size()));
  if (unattributed >= 5.0) report->Fail("trace.unattributed_pct is not below 5%");
}

constexpr size_t kClients = 2;  // closed-loop connections of the serving workloads

struct ServingSpec {
  FleetSpec fleet;
  Mix mix = Mix::kShopping;
  size_t lanes = 2;
  uint64_t batch_rows = 256;
  /// Zero: each round's window is the fleet's rollout. Otherwise each
  /// round's window lasts this long without migration, after `warmup_s`,
  /// and the rollout follows without clients.
  double window_s = 0;
  double warmup_s = 0;
};

/// Adds `sign` times `b` to `a` (counters are unsigned; deltas never go
/// below zero because every counter only grows).
void Accumulate(const Counters& b, int sign, Counters* a) {
  auto add = [sign](uint64_t* x, uint64_t y) { *x = sign > 0 ? *x + y : *x - y; };
  add(&a->hits, b.hits);
  add(&a->misses, b.misses);
  add(&a->page_io, b.page_io);
  add(&a->pages, b.pages);
  add(&a->dml_statements, b.dml_statements);
  add(&a->fragment_writes, b.fragment_writes);
  add(&a->dual_applied, b.dual_applied);
  add(&a->cache.hits, b.cache.hits);
  add(&a->cache.misses, b.cache.misses);
}

void Merge(const ClientStats& from, ClientStats* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->unservable_reads += from.unservable_reads;
  into->unservable_writes += from.unservable_writes;
  into->read_ms.insert(into->read_ms.end(), from.read_ms.begin(), from.read_ms.end());
  into->write_ms.insert(into->write_ms.end(), from.write_ms.begin(), from.write_ms.end());
  into->read_shape.insert(into->read_shape.end(), from.read_shape.begin(), from.read_shape.end());
  into->write_shape.insert(into->write_shape.end(), from.write_shape.begin(),
                           from.write_shape.end());
  if (into->first_error.empty()) into->first_error = from.first_error;
}

/// Which vCPUs do what in a serving round: each client and each migration
/// lane has one of its own, and the set-up runs on the first lane's. With
/// fewer vCPUs than clients and lanes, roles share them.
struct Cpus {
  std::vector<int> client;  ///< per client
  std::vector<int> lanes;
};

Cpus AssignCpus(size_t lanes) {
  const std::vector<int> usable = UsableCpus();
  Cpus cpus;
  for (size_t c = 0; c < kClients; ++c) cpus.client.push_back(usable[c % usable.size()]);
  for (size_t l = 0; l < lanes; ++l) {
    cpus.lanes.push_back(usable[(kClients + l) % usable.size()]);
  }
  return cpus;
}

/// What one round -- one set-up, its client window if any, its rollout --
/// measured. Times are at the reference pace.
struct Round {
  bool traced = false;
  double setup_s = 0;
  double rollout_s = 0;
  double ops_per_s = 0;
  ClientStats clients;
  Counters window;  ///< counter deltas over the window
  pse::FleetMetrics fleet;
  std::vector<double> op_ms, batch_ms;  ///< wall times, as the lanes saw them
  uint64_t rows = 0;
  double pages_per_tenant = 0;
  std::vector<double> paces;  ///< every pace the round took
};

/// Sets up a fleet and rolls it out to the end of the schedule while the
/// clients run: during the rollout when the workload migrates in its
/// window, else for a warm-up and a window before it. Checks the audit
/// tenants after the window and after the rollout, and every tenant's final
/// step.
Round RunRound(const Args& args, const ServingSpec& spec, const World& world, const Cpus& cpus,
               ExpectedAnswers* answers, Tracer* tracer, Report* report) {
  Round r;
  r.traced = tracer->enabled();
  auto pace_of = [&r](const std::vector<int>& on) {
    r.paces.push_back(PaceOf(on));
    return r.paces.back();
  };
  const std::vector<int> setup_cpu = {cpus.lanes.front()};
  const double setup_pace = pace_of(setup_cpu);
  const int64_t setup_start = NowNs();
  Fleet fleet = BuildFleet(world, spec.fleet, args.seed);
  const double setup_wall = Seconds(setup_start, NowNs());
  r.setup_s = AtPace(setup_wall, setup_pace, pace_of(setup_cpu));

  Tracer::Buffer* run_buffer = tracer->NewBuffer();
  const uint64_t run_span = run_buffer != nullptr ? run_buffer->NewId() : 0;
  MigrationObserver observer(tracer, run_span);
  // Rolls the fleet out with this thread and any Run starts as the lanes;
  // returns the wall time.
  auto rollout = [&]() {
    pse::FleetOptions options;
    options.migration_lanes = spec.lanes;
    options.serve_lanes = 0;
    options.io_tokens = 1;
    options.seed = args.seed;
    options.migration.batch_rows = spec.batch_rows;
    observer.Wire(&options);
    PinTo(cpus.lanes);
    const int64_t start = NowNs();
    auto result = fleet.scheduler->Run({}, {}, options);
    const int64_t end = NowNs();
    if (run_buffer != nullptr) run_buffer->Add("fleet.run", run_span, 0, start, end);
    if (result.ok()) {
      r.fleet = *result;
    } else {
      report->Fail("fleet rollout: " + result.status().ToString());
    }
    return Seconds(start, end);
  };

  const bool rollout_in_window = spec.window_s == 0;
  std::vector<double> client_pace(kClients);
  for (size_t c = 0; c < kClients; ++c) client_pace[c] = pace_of({cpus.client[c]});
  const double lanes_pace = rollout_in_window ? pace_of(cpus.lanes) : 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<ClientStats> clients(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    Tracer::Buffer* buffer = tracer->NewBuffer();
    threads.emplace_back([&, c, buffer] {
      PinTo({cpus.client[c]});
      RunClient(world, &fleet, WriteFraction(spec.mix), args.seed * 7919 + c, stop, measuring,
                buffer, &clients[c]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.warmup_s));
  const Counters before = Snapshot(&fleet);
  const int64_t window_start = NowNs();
  measuring.store(true);
  double rollout_wall = 0;
  if (rollout_in_window) {
    rollout_wall = rollout();
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(spec.window_s));
  }
  measuring.store(false);
  const double window_wall = Seconds(window_start, NowNs());
  stop.store(true);
  for (std::thread& t : threads) t.join();
  r.window = Snapshot(&fleet);
  Accumulate(before, -1, &r.window);
  // Each client's latencies and its share of the throughput, at the pace
  // of its vCPU over the window.
  for (size_t c = 0; c < kClients; ++c) {
    const double pace = (client_pace[c] + pace_of({cpus.client[c]})) / 2;
    for (double& ms : clients[c].read_ms) ms /= pace;
    for (double& ms : clients[c].write_ms) ms /= pace;
    r.ops_per_s += static_cast<double>(clients[c].read_ms.size() + clients[c].write_ms.size()) *
                   pace / window_wall;
    Merge(clients[c], &r.clients);
  }
  if (rollout_in_window) r.rollout_s = AtPace(rollout_wall, lanes_pace, pace_of(cpus.lanes));
  // Outside every timing. Without migration in the window the audit tenants
  // are still at the steps they served from; audit them there and again at
  // the last step.
  for (const std::string& m : AuditTenants(world, &fleet, answers)) {
    report->Fail("audit after the window: " + m);
  }
  if (!rollout_in_window) {
    const double lanes_before = pace_of(cpus.lanes);
    rollout_wall = rollout();
    r.rollout_s = AtPace(rollout_wall, lanes_before, pace_of(cpus.lanes));
    for (const std::string& m : AuditTenants(world, &fleet, answers)) {
      report->Fail("audit after the rollout: " + m);
    }
  }
  observer.Collect();
  r.op_ms = std::move(observer.op_ms);
  r.batch_ms = std::move(observer.batch_ms);
  r.rows = observer.rows;

  const size_t steps = fleet.scheduler->schedule().steps();
  for (size_t t = 0; t < fleet.scheduler->size(); ++t) {
    const size_t at = fleet.scheduler->shard(t)->step();
    if (at != steps) {
      report->Fail("tenant " + std::to_string(t) + " ended at step " + std::to_string(at) +
                   " of " + std::to_string(steps));
      break;
    }
  }
  r.pages_per_tenant =
      static_cast<double>(Snapshot(&fleet).pages) / static_cast<double>(fleet.scheduler->size());
  return r;  // the fleet is torn down here, outside every timing
}

int RunServing(const Args& args, const ServingSpec& spec) {
  Report report(args.workload);
  const World world = MakeWorld(spec.mix);
  Tracer tracer(args.trace);
  Tracer untraced(false);
  const int64_t run_start = NowNs();
  const Cpus cpus = AssignCpus(spec.lanes);

  // A traced run alternates untraced and traced rounds, so that
  // trace.overhead_pct compares rounds of one process.
  ExpectedAnswers answers;
  RunRound(args, spec, world, cpus, &answers, &untraced, &report);  // the warm-up
  const double peak_rss_mb = PeakRssMb();
  const int64_t rounds_start = NowNs();
  std::vector<Round> rounds;
  while (rounds.size() < kMinRounds || !TimeIsUp(run_start, rounds_start, rounds.size())) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(
        RunRound(args, spec, world, cpus, &answers, traced ? &tracer : &untraced, &report));
  }

  ClientStats all;
  std::vector<double> setups, rollouts, throughputs, op_ms, batch_ms, paces;
  std::vector<double> traced_qps, untraced_qps;
  std::vector<std::vector<double>> stmt_ms;  // per round, reads then writes
  std::vector<std::vector<uint32_t>> stmt_shape;
  Counters window;
  pse::FleetMetrics fm;
  uint64_t rows = 0;
  double migration_io_in_windows = 0;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    rollouts.push_back(r.rollout_s);
    throughputs.push_back(r.ops_per_s);
    (r.traced ? traced_qps : untraced_qps).push_back(r.ops_per_s);
    paces.insert(paces.end(), r.paces.begin(), r.paces.end());
    if (spec.window_s == 0) {
      migration_io_in_windows += static_cast<double>(r.fleet.migration_io);
    }
    Merge(r.clients, &all);
    Accumulate(r.window, +1, &window);
    stmt_ms.push_back(r.clients.read_ms);
    stmt_ms.back().insert(stmt_ms.back().end(), r.clients.write_ms.begin(),
                          r.clients.write_ms.end());
    stmt_shape.push_back(r.clients.read_shape);
    stmt_shape.back().insert(stmt_shape.back().end(), r.clients.write_shape.begin(),
                             r.clients.write_shape.end());
    fm.ops_applied += r.fleet.ops_applied;
    fm.batches += r.fleet.batches;
    fm.migration_io += r.fleet.migration_io;
    fm.io_peak_outstanding = std::max(fm.io_peak_outstanding, r.fleet.io_peak_outstanding);
    op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
    batch_ms.insert(batch_ms.end(), r.batch_ms.begin(), r.batch_ms.end());
    rows += r.rows;
  }
  if (all.failed > 0) {
    report.Fail(std::to_string(all.failed) + " statements failed, first: " + all.first_error);
  }

  // -- end-to-end metrics --
  const double stmts = static_cast<double>(all.read_ms.size() + all.write_ms.size());
  report.Add("setup_s", Median(setups));
  report.Add("rollout_s", Median(rollouts));
  report.Add("ops_per_s", Median(throughputs));
  report.AddTypical("op_typical_ms", stmt_ms, stmt_shape);
  report.AddQuantile("op_p90_ms", stmt_ms, 0.90);
  report.Add("peak_rss_mb", peak_rss_mb);
  report.NotePaces(paces);

  // -- per-layer metrics, per rollout where they count a rollout's work --
  if (args.trace) {
    const std::vector<Span> spans = tracer.Collect();
    const Breakdown b = Analyze(spans, "stmt");
    // The statement path in call order: self time as a share of statement time.
    report.Add("storage.latch_self_pct", b.SelfPct("latch"));
    report.Add("fleet.snapshot_self_pct", b.SelfPct("snapshot"));
    report.Add("fleet.rewrite_self_pct", b.SelfPct("rewrite"));
    report.Add("engine.plan_self_pct", b.SelfPct("plan"));
    report.Add("engine.exec_self_pct", b.SelfPct("exec"));
    report.Add("dml.exec_self_pct", b.SelfPct("dml"));
    AddTraceMetrics(spans, b, "stmt", Median(traced_qps), Median(untraced_qps), &report);
    report.Describe("storage.latch_wait_ms.p99", b.Durations("latch"), 0.99);
    report.Describe("fleet.rewrite_ms.p50", b.Durations("rewrite"), 0.50);
    report.Describe("engine.plan_ms.p50", b.Durations("plan"), 0.50);
    report.Describe("engine.exec_ms.p50", b.Durations("exec"), 0.50);
    report.Describe("engine.exec_ms.p99", b.Durations("exec"), 0.99);
    report.Describe("dml.exec_ms.p50", b.Durations("dml"), 0.50);
    report.Describe("dml.exec_ms.p99", b.Durations("dml"), 0.99);
    report.Describe("fleet.op_ms.p50", op_ms, 0.50);
    report.Describe("fleet.op_ms.p99", op_ms, 0.99);
    report.Describe("migration.batch_ms.p50", batch_ms, 0.50);
    report.Describe("migration.batch_ms.p99", batch_ms, 0.99);
    if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out, spans, run_start)) {
      report.Fail("cannot write " + args.trace_out);
    }

    const double n = static_cast<double>(rounds.size());
    const double hits = static_cast<double>(window.hits);
    report.Add("storage.pool_hit_pct", Pct(hits, hits + static_cast<double>(window.misses)));
    // Foreground page I/O: the windows' I/O less what the migration executor
    // accounted to itself (it cannot tell concurrent client I/O apart).
    const double foreground_io = static_cast<double>(window.page_io) - migration_io_in_windows;
    report.Add("storage.page_io_per_op", std::max(0.0, foreground_io) / stmts);
    report.Add("storage.pages_per_tenant", rounds.back().pages_per_tenant);
    report.Add("fleet.plan_cache_hit_pct", window.cache.hit_pct());
    report.Add("fleet.ops_applied", static_cast<double>(fm.ops_applied) / n);
    report.Add("fleet.io_peak_outstanding", static_cast<double>(fm.io_peak_outstanding));
    report.Add("migration.batches", static_cast<double>(fm.batches) / n);
    report.Add("migration.pages", static_cast<double>(fm.migration_io) / n);
    double lane_ms = 0;
    double copy_ms = 0;
    for (double ms : op_ms) lane_ms += ms;
    for (double ms : batch_ms) copy_ms += ms;
    report.Add("migration.rows_per_s",
               lane_ms > 0 ? static_cast<double>(rows) / (lane_ms / 1e3) : 0);
    report.Add("migration.batch_share_pct", Pct(copy_ms, lane_ms));
    const double dml = static_cast<double>(window.dml_statements);
    const double writes = static_cast<double>(all.write_ms.size() + all.unservable_writes);
    const double reads = static_cast<double>(all.read_ms.size() + all.unservable_reads);
    report.Add("dml.fragment_writes_per_stmt",
               dml > 0 ? static_cast<double>(window.fragment_writes) / dml : 0);
    report.Add("dml.dual_applied_pct", Pct(static_cast<double>(window.dual_applied), dml));
    report.Add("dml.unservable_pct", Pct(static_cast<double>(all.unservable_writes), writes));
    report.Add("rewrite.unservable_pct", Pct(static_cast<double>(all.unservable_reads), reads));
  }
  return report.Finish(args.trace, all.attempted, all.failed);
}

/// TPC-W 100MB(1:20) with the data seed of EXPERIMENTS.md, so that the
/// simulated Pro-Schema cost is Fig 8(a)'s.
struct PlannerInputs {
  std::unique_ptr<pse::TpcwSchema> schema;
  std::unique_ptr<pse::LogicalDatabase> data;
  std::vector<pse::WorkloadQuery> queries;
  pse::OperatorSet opset;
  std::vector<pse::LogicalStats> stats;
  std::vector<std::vector<double>> freqs;
};

PlannerInputs MakePlannerInputs() {
  PlannerInputs in;
  in.schema = pse::BuildTpcwSchema();
  in.data = pse::GenerateTpcwData(*in.schema, pse::Scaled100MB(), 42);
  auto queries = pse::BuildTpcwWorkload(*in.schema);
  auto opset = pse::ComputeOperatorSet(in.schema->source, in.schema->object);
  if (!queries.ok() || !opset.ok()) {
    std::fprintf(stderr, "planner inputs: %s %s\n", queries.status().ToString().c_str(),
                 opset.status().ToString().c_str());
    std::exit(1);
  }
  in.queries = std::move(*queries);
  in.opset = std::move(*opset);
  in.stats = {in.data->ComputeStats()};
  in.freqs = pse::Fig9IrregularFrequencies();
  return in;
}

/// Counts summed over planning passes.
struct PassCounts {
  uint64_t laa_schemas = 0;
  uint64_t gaa_evaluations = 0;
  pse::CostCacheStats cache;
};

/// One planning pass with a fresh cost cache: LAA at every Fig 9 migration
/// point (observing the previous phase, as the simulation does), then GAA
/// over all phases with bench_fig8_phase_cost's GA settings.
pse::Status PlanningPass(const PlannerInputs& in, uint64_t ga_seed, Tracer::Buffer* trace,
                         PassCounts* counts) {
  pse::QueryCostCache cache;
  pse::AnalysisOptions analysis;
  analysis.cost_cache = &cache;
  const uint64_t pass_id = trace != nullptr ? trace->NewId() : 0;
  const int64_t pass_start = NowNs();

  pse::PhysicalSchema current = in.schema->source;
  pse::MigrationContext ctx;
  ctx.object = &in.schema->object;
  ctx.opset = &in.opset;
  ctx.applied.assign(in.opset.size(), false);
  ctx.phase_freqs = &in.freqs;
  ctx.phase_stats = &in.stats;
  ctx.queries = &in.queries;
  ctx.current = &current;
  for (size_t p = 0; p < in.freqs.size(); ++p) {
    const int64_t t0 = NowNs();
    auto laa = pse::SelectOpsLaa(ctx, p, p == 0 ? 0 : p - 1, /*max_ops=*/22, analysis);
    if (trace != nullptr) trace->Add("laa", trace->NewId(), pass_id, t0, NowNs());
    if (!laa.ok()) return laa.status();
    counts->laa_schemas += laa->schemas_evaluated;
    for (int op : laa->ops_to_apply) {
      PSE_RETURN_NOT_OK(pse::ApplyOperator(in.opset.ops[static_cast<size_t>(op)], &current));
      ctx.applied[static_cast<size_t>(op)] = true;
    }
  }

  pse::PhysicalSchema source = in.schema->source;
  ctx.current = &source;
  ctx.applied.assign(in.opset.size(), false);
  pse::GaaOptions gaa;
  gaa.ga.population_size = 32;
  gaa.ga.generations = 40;
  gaa.ga.stall_generations = 12;
  gaa.seed = ga_seed;
  gaa.analysis.cost_cache = &cache;
  const int64_t t0 = NowNs();
  auto plan = pse::PlanGaa(ctx, 0, gaa);
  const int64_t end = NowNs();
  if (trace != nullptr) {
    trace->Add("gaa", trace->NewId(), pass_id, t0, end);
    trace->Add("pass", pass_id, 0, pass_start, end);
  }
  if (!plan.ok()) return plan.status();
  counts->gaa_evaluations += plan->evaluations;
  const pse::CostCacheStats stats = cache.Snapshot();
  counts->cache.hits += stats.hits;
  counts->cache.misses += stats.misses;
  return pse::Status::OK();
}

int RunPlanner(const Args& args) {
  Report report(args.workload);
  Tracer tracer(args.trace);
  Tracer::Buffer* buffer = tracer.NewBuffer();
  // Rounds like the serving workloads': each builds the inputs afresh (the
  // set-up), runs kPassesPerRound planning passes (the window), then simulates
  // the Pro-Schema rollout of Fig 8(a) on one database kSimsPerRound times.
  // The first round, of kWarmupPasses passes and one simulation, is the
  // warm-up. A traced run traces every other pass; the rest time the
  // untraced rate. All of it runs on one vCPU, whose pace is taken around
  // the set-up and each simulation, and once between every two passes (a
  // single run of the calibration loop).
  pse::SimulationConfig config;
  config.planner = pse::PlannerKind::kLaa;
  config.buffer_pool_pages = 1024;
  const int cpu = UsableCpus().front();
  std::vector<std::vector<double>> pass_ms;
  std::vector<double> setups, sims, rates, traced_ms, untraced_ms, paces;
  PassCounts counts;
  pse::SituationReport pro;
  uint64_t passes = 0;
  uint64_t failed = 0;
  const int64_t run_start = NowNs();
  int64_t rounds_start = 0;
  double peak_rss_mb = 0;
  bool warmup = true;
  while (failed == 0 && (warmup || pass_ms.size() < kMinRounds ||
                         !TimeIsUp(run_start, rounds_start, pass_ms.size()))) {
    const double setup_pace = PaceOn(cpu);
    const int64_t setup_start = NowNs();
    const PlannerInputs in = MakePlannerInputs();
    const double setup_wall = Seconds(setup_start, NowNs());
    double pace = Pace();
    const double setup_s = AtPace(setup_wall, setup_pace, pace);

    std::vector<double> round;
    double window_ms = 0;
    while (failed == 0 && round.size() < (warmup ? kWarmupPasses : kPassesPerRound)) {
      const bool traced = buffer != nullptr && passes % 2 == 1;
      const int64_t t0 = NowNs();
      pse::Status s = PlanningPass(in, args.seed * 1000003 + passes++,
                                   traced ? buffer : nullptr, &counts);
      const int64_t t1 = NowNs();
      if (!s.ok()) {
        ++failed;
        report.Fail("planning pass: " + s.ToString());
      }
      const double next = Pace(1);
      round.push_back(AtPace(static_cast<double>(t1 - t0) / 1e6, pace, next));
      paces.push_back(pace);
      pace = next;
      window_ms += round.back();
      (traced ? traced_ms : untraced_ms).push_back(round.back());
    }

    pace = Pace();
    for (size_t i = 0; failed == 0 && i < (warmup ? 1 : kSimsPerRound); ++i) {
      pse::MigrationSimulation sim(&in.schema->source, &in.schema->object, &in.queries,
                                   in.freqs, in.data.get(), config);
      const int64_t sim_start = NowNs();
      auto result = sim.Run(pse::Situation::kProSchema);
      const double sim_wall = Seconds(sim_start, NowNs());
      const double next = Pace();
      if (!warmup) sims.push_back(AtPace(sim_wall, pace, next));
      pace = next;
      if (!result.ok()) {
        ++failed;
        report.Fail("Pro-Schema simulation: " + result.status().ToString());
        break;
      }
      pro = *result;
      if (pro.OverallCost() != kOverallCostPages) {
        report.Fail("overall cost is " + std::to_string(pro.OverallCost()) + " pages, want " +
                    std::to_string(kOverallCostPages));
      }
    }
    if (!warmup) {
      setups.push_back(setup_s);
      pass_ms.push_back(std::move(round));
      rates.push_back(static_cast<double>(pass_ms.back().size()) / (window_ms / 1e3));
    } else {
      peak_rss_mb = PeakRssMb();
      rounds_start = NowNs();
    }
    warmup = false;
  }

  report.Add("setup_s", Median(setups));
  report.Add("rollout_s", Median(sims));
  report.Add("ops_per_s", Median(rates));
  std::vector<std::vector<uint32_t>> one_shape;
  for (const std::vector<double>& round : pass_ms) one_shape.emplace_back(round.size(), 0);
  report.AddTypical("op_typical_ms", pass_ms, one_shape);
  report.AddQuantile("op_p90_ms", pass_ms, 0.90);
  report.Add("peak_rss_mb", peak_rss_mb);
  report.NotePaces(paces);
  if (args.trace) {
    const std::vector<Span> spans = tracer.Collect();
    const Breakdown b = Analyze(spans, "pass");
    report.Add("planner.laa_self_pct", b.SelfPct("laa"));
    report.Add("planner.gaa_self_pct", b.SelfPct("gaa"));
    AddTraceMetrics(spans, b, "pass", 1.0 / Median(traced_ms), 1.0 / Median(untraced_ms),
                    &report);
    const double n = static_cast<double>(std::max<uint64_t>(passes, 1));
    report.Add("planner.laa_schemas_evaluated", static_cast<double>(counts.laa_schemas) / n);
    report.Add("planner.gaa_evaluations", static_cast<double>(counts.gaa_evaluations) / n);
    report.Add("planner.cost_cache_hit_pct", counts.cache.hit_pct());
    report.Add("sim.query_pages", pro.OverallCost());
    report.Add("sim.migration_pages", pro.TotalMigrationIo());
    report.Describe("planner.laa_ms.p50", b.Durations("laa"), 0.50);
    report.Describe("planner.gaa_ms.p50", b.Durations("gaa"), 0.50);
    if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out, spans, run_start)) {
      report.Fail("cannot write " + args.trace_out);
    }
  }
  return report.Finish(args.trace, std::max<uint64_t>(passes, 1), failed);
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: pse_benchmark --workload fleet-rollout|tenant-large|steady-write|"
               "plan-fig8 [--seed N] [--trace 0|1] [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag == "--trace" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      value = "1";  // a bare --trace
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) Usage("bad value for " + flag);
  }
  return args;
}

}  // namespace
}  // namespace psebench

int main(int argc, char** argv) {
  using namespace psebench;
  const Args args = ParseArgs(argc, argv);
  // Memory a round frees stays in the process for the next round to reuse,
  // so that only the warm-up round touches fresh pages. A first touch costs
  // the guest and its host a page fault each, whose price varies on a
  // shared host; returning memory between rounds made every round pay it.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  const pse::TpcwScale small{"300 items / 500 customers", 300, 500};
  if (args.workload == "fleet-rollout") {
    ServingSpec spec;
    spec.fleet.tenants = 64;
    spec.fleet.scale = small;
    spec.fleet.pool_pages = 64;
    spec.mix = Mix::kShopping;
    return RunServing(args, spec);
  }
  if (args.workload == "tenant-large") {
    ServingSpec spec;
    spec.fleet.tenants = 1;
    spec.fleet.scale = pse::TpcwScale{"3000 items / 6000 customers", 3000, 6000};
    spec.fleet.pool_pages = 160;
    spec.mix = Mix::kReadOnly;
    spec.lanes = 1;
    spec.batch_rows = 1024;
    spec.window_s = 1.5;
    spec.warmup_s = 0.5;
    return RunServing(args, spec);
  }
  if (args.workload == "steady-write") {
    ServingSpec spec;
    spec.fleet.tenants = 36;
    spec.fleet.scale = small;
    spec.fleet.pool_pages = 256;
    spec.fleet.park_across_steps = true;
    spec.mix = Mix::kOrdering;
    spec.window_s = 1.5;
    spec.warmup_s = 0.3;
    return RunServing(args, spec);
  }
  if (args.workload == "plan-fig8") return RunPlanner(args);
  Usage("unknown workload '" + args.workload + "'");
}

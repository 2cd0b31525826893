// The paper's complexity argument made observable: LAA's exhaustive search
// estimates O(2^m) candidate schemas per migration point, while GAA's
// population x generations budget is flat — and the operator-interaction
// analysis (src/analysis/interaction.h) collapses the exhaustive sweep to a
// sum of per-cluster enumerations while staying exact.
//
// Two synthetic families are swept:
//   independent  m entities, one 2-attr split each — m singleton clusters,
//                so pruning turns 2^m into m*2 + 1.
//   clustered    4 entities x 5 attrs, object = single-attr fragments — 4
//                interference clusters of 4 dependency-free splits each
//                (m = 16), the acceptance shape for pruned LAA.
//
// For each point the bench runs pruned LAA, brute-force LAA (where feasible),
// and GAA, and prints a table. --json=PATH additionally writes the rows
// (BENCH_laa_scaling.json via scripts/bench.sh).
//
// The binary checks its own results and exits 1 when the pruned,
// brute-force and cached LAA costs differ, or when a count reads
// differently on two repeats.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/mapping.h"
#include "core/migration_planner.h"
#include "engine/cost_cache.h"

namespace pse {
namespace {

/// Synthetic universe builder output.
struct Synthetic {
  std::unique_ptr<LogicalSchema> logical;
  PhysicalSchema source, object;
  LogicalStats stats;
  std::vector<WorkloadQuery> queries;
};

void FillStats(Synthetic* s) {
  s->stats.Resize(*s->logical);
  for (size_t e = 0; e < s->logical->num_entities(); ++e) s->stats.entity_rows[e] = 10000;
  for (size_t a = 0; a < s->logical->num_attributes(); ++a) {
    s->stats.attrs[a].num_distinct = 10000;
    s->stats.attrs[a].min = 0;
    s->stats.attrs[a].max = 9999;
  }
}

/// `m` independent entities, each with two attributes; the object schema
/// splits every entity's table, giving exactly m independent split operators.
Synthetic MakeIndependent(size_t m) {
  Synthetic s;
  s.logical = std::make_unique<LogicalSchema>();
  s.source = PhysicalSchema(s.logical.get());
  s.object = PhysicalSchema(s.logical.get());
  for (size_t i = 0; i < m; ++i) {
    std::string n = std::to_string(i);
    EntityId e = s.logical->AddEntity("e" + n, "e" + n + "_id");
    AttrId a = *s.logical->AddAttribute(e, "e" + n + "_a", TypeId::kVarchar, 40);
    AttrId b = *s.logical->AddAttribute(e, "e" + n + "_b", TypeId::kVarchar, 40);
    (void)s.source.AddTable("t" + n, e, {a, b});
    (void)s.object.AddTable("t" + n + "_a", e, {a});
    (void)s.object.AddTable("t" + n + "_b", e, {b});
    // One old query per entity wanting both halves; one new wanting one.
    LogicalQuery old_q;
    old_q.anchor = e;
    old_q.name = "O" + n;
    old_q.select.emplace_back(Col("e" + n + "_a"), AggFunc::kNone, "a");
    old_q.select.emplace_back(Col("e" + n + "_b"), AggFunc::kNone, "b");
    s.queries.emplace_back(std::move(old_q), true);
    LogicalQuery new_q;
    new_q.anchor = e;
    new_q.name = "N" + n;
    new_q.select.emplace_back(Col("e" + n + "_a"), AggFunc::kNone, "a");
    s.queries.emplace_back(std::move(new_q), false);
  }
  FillStats(&s);
  return s;
}

/// `entities` entities with `attrs_per_entity` attributes each; the object
/// schema shatters every table into single-attribute fragments. All splits
/// of one entity share the source table, so each entity is one interference
/// cluster of attrs_per_entity - 1 dependency-free splits.
Synthetic MakeClustered(size_t entities, size_t attrs_per_entity) {
  Synthetic s;
  s.logical = std::make_unique<LogicalSchema>();
  s.source = PhysicalSchema(s.logical.get());
  s.object = PhysicalSchema(s.logical.get());
  for (size_t i = 0; i < entities; ++i) {
    std::string n = std::to_string(i);
    EntityId e = s.logical->AddEntity("c" + n, "c" + n + "_id");
    std::vector<AttrId> attrs;
    for (size_t j = 0; j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      attrs.push_back(*s.logical->AddAttribute(e, an, TypeId::kVarchar, 40));
      (void)s.object.AddTable("t" + n + "_" + std::to_string(j), e, {attrs.back()});
    }
    (void)s.source.AddTable("t" + n, e, attrs);
    // Old query reads the whole row; new query reads the first two attrs.
    LogicalQuery old_q;
    old_q.anchor = e;
    old_q.name = "O" + n;
    for (size_t j = 0; j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      old_q.select.emplace_back(Col(an), AggFunc::kNone, an);
    }
    s.queries.emplace_back(std::move(old_q), true);
    LogicalQuery new_q;
    new_q.anchor = e;
    new_q.name = "N" + n;
    for (size_t j = 0; j < 2 && j < attrs_per_entity; ++j) {
      std::string an = "c" + n + "_x" + std::to_string(j);
      new_q.select.emplace_back(Col(an), AggFunc::kNone, an);
    }
    s.queries.emplace_back(std::move(new_q), false);
  }
  FillStats(&s);
  return s;
}

struct BenchRow {
  std::string family;
  size_t m = 0;
  size_t clusters = 0;
  size_t pruned_evals = 0;
  double pruned_ms = 0;
  double brute_closed = 0;  ///< closed subsets brute force would cost
  long long exhaustive_evals = -1;
  double exhaustive_ms = -1;
  bool exhaustive_run = false;
  bool cost_equal = true;
  size_t gaa_evals = 0;
  double gaa_ms = 0;
  /// Cached repeat of the row's most expensive sweep (the brute sweep when
  /// it ran, else the pruned one).
  double cached_ms = 0;
  double cache_hit_pct = 0;
};

/// Runs pruned LAA, optionally brute-force LAA, and GAA on one instance.
int RunPoint(const std::string& family, Synthetic* s, bool run_exhaustive, BenchRow* row) {
  auto opset = ComputeOperatorSet(s->source, s->object);
  if (!opset.ok()) {
    std::fprintf(stderr, "opset: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<double>> freqs(3, std::vector<double>(s->queries.size()));
  for (size_t p = 0; p < 3; ++p) {
    for (size_t q = 0; q < s->queries.size(); ++q) {
      bool old_q = s->queries[q].is_old;
      freqs[p][q] = old_q ? 30.0 - 10.0 * static_cast<double>(p)
                          : 10.0 + 10.0 * static_cast<double>(p);
    }
  }
  std::vector<LogicalStats> stats{s->stats};
  MigrationContext ctx;
  ctx.current = &s->source;
  ctx.object = &s->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &stats;
  ctx.queries = &s->queries;

  row->family = family;
  row->m = opset->size();

  Stopwatch pruned_timer;
  auto pruned = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20);
  row->pruned_ms = pruned_timer.ElapsedSeconds() * 1000.0;
  if (!pruned.ok()) {
    std::fprintf(stderr, "pruned LAA: %s\n", pruned.status().ToString().c_str());
    return 1;
  }
  row->pruned_evals = pruned->schemas_evaluated;
  row->clusters = pruned->clusters.size();
  row->brute_closed = pruned->schemas_exhaustive;

  double serial_best = pruned->best_cost;
  if (run_exhaustive) {
    AnalysisOptions brute_options;
    brute_options.prune_laa = false;
    Stopwatch brute_timer;
    auto brute = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20, brute_options);
    row->exhaustive_ms = brute_timer.ElapsedSeconds() * 1000.0;
    if (!brute.ok()) {
      std::fprintf(stderr, "brute LAA: %s\n", brute.status().ToString().c_str());
      return 1;
    }
    row->exhaustive_run = true;
    row->exhaustive_evals = static_cast<long long>(brute->schemas_evaluated);
    double tol = 1e-6 * std::max(1.0, std::fabs(brute->best_cost));
    row->cost_equal = std::fabs(pruned->best_cost - brute->best_cost) <= tol;
    serial_best = brute->best_cost;
  }

  // Cached repeat of the row's most expensive sweep: same enumeration, with
  // each query's cost memoized by the tables storing its support. The
  // chosen plan's cost must equal the uncached run's (the cache is exact).
  {
    QueryCostCache cache;
    AnalysisOptions cached_options;
    cached_options.prune_laa = !run_exhaustive;
    cached_options.cost_cache = &cache;
    auto cached = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/20, cached_options);
    if (!cached.ok()) {
      std::fprintf(stderr, "cached LAA: %s\n", cached.status().ToString().c_str());
      return 1;
    }
    row->cached_ms = cached->wall_ms;
    row->cache_hit_pct = cached->cache_stats.hit_pct();
    double tol = 1e-6 * std::max(1.0, std::fabs(serial_best));
    row->cost_equal = row->cost_equal && std::fabs(cached->best_cost - serial_best) <= tol;
  }
  if (!row->cost_equal) {
    std::fprintf(stderr, "%s m=%zu: the pruned, brute-force and cached LAA costs differ\n",
                 family.c_str(), row->m);
    return 1;
  }

  GaaOptions options;
  options.ga.population_size = 32;
  options.ga.generations = 40;
  options.ga.stall_generations = 12;
  Stopwatch gaa_timer;
  auto gaa = PlanGaa(ctx, 0, options);
  row->gaa_ms = gaa_timer.ElapsedSeconds() * 1000.0;
  if (!gaa.ok()) {
    std::fprintf(stderr, "GAA: %s\n", gaa.status().ToString().c_str());
    return 1;
  }
  row->gaa_evals = gaa->evaluations;
  return 0;
}

/// Sets one repeat of `r` on its JSON row. A row whose brute sweep was
/// skipped carries null there, not a numeric sentinel a reader could take
/// for a measurement.
void Record(const BenchRow& r, bench::BenchJson::Row* j) {
  j->Text("family", r.family);
  j->Count("m", r.m);
  j->Count("clusters", r.clusters);
  j->Count("schemas_evaluated_pruned", r.pruned_evals);
  j->Count("schemas_exhaustive", r.brute_closed);
  j->Count("pruned_pct_of_exhaustive",
           r.brute_closed > 0 ? 100.0 * static_cast<double>(r.pruned_evals) / r.brute_closed
                              : 0.0);
  if (r.exhaustive_run) {
    j->Count("schemas_evaluated_brute_run", r.exhaustive_evals);
    j->Flag("cost_equal_to_brute", r.cost_equal);
  } else {
    j->Null("schemas_evaluated_brute_run");
    j->Null("cost_equal_to_brute");
  }
  j->Sample("pruned_ms", r.pruned_ms);
  if (r.exhaustive_run) {
    j->Sample("exhaustive_ms", r.exhaustive_ms);
  } else {
    j->Null("exhaustive_ms");
  }
  j->Sample("cached_ms", r.cached_ms);
  j->Count("cache_hit_pct", r.cache_hit_pct);
  j->Count("gaa_evaluations", r.gaa_evals);
  j->Sample("gaa_ms", r.gaa_ms);
}

void PrintRow(const BenchRow& r) {
  std::printf("%-12s %-4zu %8zu %13zu %16.0f", r.family.c_str(), r.m, r.clusters,
              r.pruned_evals, r.brute_closed);
  if (r.exhaustive_run) {
    std::printf(" %13lld %8s", r.exhaustive_evals, r.cost_equal ? "yes" : "NO");
  } else {
    std::printf(" %13s %8s", "-", r.cost_equal ? "yes" : "NO");
  }
  std::printf(" %10.1f %10.1f %10.1f %6.1f%% %12zu %10.1f\n", r.pruned_ms,
              r.exhaustive_run ? r.exhaustive_ms : 0.0, r.cached_ms, r.cache_hit_pct,
              r.gaa_evals, r.gaa_ms);
}

}  // namespace
}  // namespace pse


int main(int argc, char** argv) {
  using namespace pse;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  // Timings move from run to run, so every section runs kRepeats times: the
  // JSON gives each timing's median and quartiles, and every count must
  // read the same on every repeat.
  constexpr size_t kRepeats = 5;
  bench::BenchJson json("laa_scaling");
  int rc = 0;
  for (size_t rep = 1; rep <= kRepeats; ++rep) {
    std::printf("=== repeat %zu/%zu: LAA pruned (interaction clusters) vs brute force vs "
                "cached vs GAA ===\n",
                rep, kRepeats);
    std::printf("%-12s %-4s %8s %13s %16s %13s %8s %10s %10s %10s %7s %12s %10s\n",
                "family", "m", "clusters", "pruned-evals", "brute-closed", "brute-evals",
                "equal", "pruned-ms", "brute-ms", "cached-ms", "hit", "GAA-evals", "GAA-ms");
    size_t i = 0;
    for (size_t m : {4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
      Synthetic s = MakeIndependent(m);
      BenchRow row;
      // Brute force doubles per operator; cap the comparison runs at m = 12.
      rc |= RunPoint("independent", &s, /*run_exhaustive=*/m <= 12, &row);
      PrintRow(row);
      Record(row, &json.At("rows", i++));
    }
    {
      // The acceptance shape: m = 16 in 4 interference clusters.
      Synthetic s = MakeClustered(/*entities=*/4, /*attrs_per_entity=*/5);
      BenchRow row;
      rc |= RunPoint("clustered", &s, /*run_exhaustive=*/true, &row);
      PrintRow(row);
      Record(row, &json.At("rows", i++));
    }
    std::printf("\n");
  }
  std::printf(
      "Brute-force LAA doubles per operator (the paper's 2^m); cluster-wise LAA pays the\n"
      "sum of the clusters instead of their product, at identical chosen-plan cost; the\n"
      "cached column repeats the row's most expensive sweep with layout-fingerprint\n"
      "memoization, again at identical cost; GAA stays within its GA budget.\n");
  if (!json.ok()) rc = 1;
  if (!json_path.empty() && !json.Write(json_path)) rc = 1;
  return rc;
}

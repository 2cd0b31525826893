// Minimal SQL shell over the embedded engine — shows that the substrate
// under the migration machinery is a usable database on its own.
//
// Usage:
//   sql_shell                    # in-memory, interactive (stdin)
//   sql_shell "SQL" "SQL" ...    # executes the given statements and exits
//   sql_shell --db=FILE [...]    # persistent: opens/creates FILE, restores
//                                # its catalog, checkpoints on exit
//
// Statements end with ';' (or end of line in argv mode). EXPLAIN SELECT ...
// prints the physical plan. ".tables" lists tables, ".verify" statically
// verifies the built-in TPC-W source->object migration (operator set,
// information preservation, workload answerability), ".interactions" prints
// the operator-interaction analysis of that migration (footprints,
// interference clusters, plan-space reduction), ".coststats" runs cached
// LAA planning over that migration twice and prints the cost-cache
// hit/miss/eviction counters, ".writability" prints the per-version DML
// writability matrix over that migration's trajectory (operator lenses,
// per-step Safe/NeedsPropagation/Unservable cells, WRITE_* findings),
// ".migrate" executes that migration *online* (batched, journaled, with a
// simulated crash + resume) on a scratch database, ".serve" runs it again
// under live concurrent mixed-version sessions and prints throughput +
// latency quantiles, ".lockgraph" analyzes the latch-acquisition-order
// graph recorded so far (build with -DPROGSCHEMA_LOCKDEP=ON and run ".serve"
// first for a live graph; otherwise the canonical DESIGN.md section 17
// hierarchy is shown) and dumps it as GraphViz DOT, ".quit" exits.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/interaction.h"
#include "analysis/lockorder.h"
#include "analysis/verifier.h"
#include "analysis/writability.h"
#include "common/lock_registry.h"
#include "common/string_util.h"
#include "core/mapping.h"
#include "core/migration_executor.h"
#include "core/migration_planner.h"
#include "engine/cost_cache.h"
#include "fleet/plan_cache.h"
#include "fleet/schedule.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "sql/session.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"

using namespace pse;

namespace {

void PrintResult(const ExecResult& result) {
  if (!result.columns.empty()) {
    for (size_t i = 0; i < result.columns.size(); ++i) {
      std::printf("%s%s", i ? " | " : "", result.columns[i].c_str());
    }
    std::printf("\n");
    for (const auto& row : result.rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%s", i ? " | " : "", row[i].ToString().c_str());
      }
      std::printf("\n");
    }
    std::printf("(%zu rows)\n", result.rows.size());
  } else {
    std::printf("OK (%llu rows affected)\n", static_cast<unsigned long long>(result.affected));
  }
}

/// `.verify`: statically verify the built-in TPC-W source->object migration.
int RunVerifyDemo() {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  if (!queries.ok()) {
    std::printf("error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  if (!opset.ok()) {
    std::printf("error: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  VerifyInput input;
  input.source = &schema->source;
  input.object = &schema->object;
  input.opset = &*opset;
  input.queries = &*queries;
  DiagnosticReport report = VerifyMigration(input);
  std::printf("TPC-W source -> object migration: %zu operators, %zu queries\n",
              opset->size(), queries->size());
  if (report.diagnostics().empty()) {
    std::printf("verifies clean: no diagnostics\n");
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  return report.ok() ? 0 : 1;
}

/// `.interactions`: operator-interaction analysis of the TPC-W migration.
int RunInteractionsDemo() {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  if (!queries.ok()) {
    std::printf("error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  if (!opset.ok()) {
    std::printf("error: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  std::vector<bool> applied(opset->size(), false);
  auto analysis = AnalyzeInteractions(*opset, schema->source, applied, &*queries);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  std::printf("TPC-W source -> object migration: %zu operators, %zu queries\n",
              opset->size(), queries->size());
  std::printf("%s", analysis->ToString(*opset, schema->logical, &*queries).c_str());
  DiagnosticReport report;
  ReportCostIrrelevantOps(*analysis, *opset, schema->logical, &report);
  if (!report.diagnostics().empty()) std::printf("%s", report.ToString().c_str());
  return 0;
}

/// `.coststats`: cached LAA over the TPC-W migration. Two rounds
/// against one shared cache show the cold-run miss population and the warm
/// run served entirely from memoized estimates.
int RunCostStatsDemo() {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  if (!queries.ok()) {
    std::printf("error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  if (!opset.ok()) {
    std::printf("error: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny());
  std::vector<LogicalStats> stats{data->ComputeStats()};
  std::vector<std::vector<double>> freqs{std::vector<double>(queries->size(), 1.0)};
  MigrationContext ctx;
  ctx.current = &schema->source;
  ctx.object = &schema->object;
  ctx.opset = &*opset;
  ctx.applied.assign(opset->size(), false);
  ctx.phase_freqs = &freqs;
  ctx.phase_stats = &stats;
  ctx.queries = &*queries;

  QueryCostCache cache;
  AnalysisOptions analysis;
  analysis.cost_cache = &cache;
  std::printf("TPC-W source -> object migration: %zu operators, %zu queries\n", opset->size(),
              queries->size());
  for (int round = 1; round <= 2; ++round) {
    auto laa = SelectOpsLaa(ctx, 0, 0, /*max_ops=*/30, analysis);
    if (!laa.ok()) {
      std::printf("error: %s\n", laa.status().ToString().c_str());
      return 1;
    }
    std::printf("LAA round %d: %zu schemas costed in %.2f ms\n  %s\n", round,
                laa->schemas_evaluated, laa->wall_ms, laa->cache_stats.ToString().c_str());
  }
  std::printf("cache holds %zu distinct (query, layout, stats) entries\n", cache.size());
  return 0;
}

/// `.writability`: the per-version DML writability matrix of the TPC-W
/// migration. The trajectory groups operators by interference cluster (the
/// clusters are dependency-closed, so each is a legal publish step), then the
/// information-flow pass classifies every (version, table, DML-kind) cell on
/// every intermediate schema and reports the WRITE_* findings.
int RunWritabilityDemo() {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  if (!queries.ok()) {
    std::printf("error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  if (!opset.ok()) {
    std::printf("error: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  std::vector<bool> applied(opset->size(), false);
  auto analysis = AnalyzeInteractions(*opset, schema->source, applied, &*queries);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  WritabilityInput input;
  input.old_schema = &schema->source;
  input.new_schema = &schema->object;
  input.opset = &*opset;
  for (const InteractionCluster& cluster : analysis->clusters) {
    input.trajectory.push_back(cluster.ops);
  }
  DiagnosticReport report;
  auto wa = AnalyzeWritability(input, &report);
  if (!wa.ok()) {
    std::printf("error: %s\n", wa.status().ToString().c_str());
    return 1;
  }
  std::printf("TPC-W source -> object migration: %zu operators, one step per "
              "interference cluster\n",
              opset->size());
  std::printf("%s", wa->ToString(*opset, schema->logical).c_str());
  if (!report.diagnostics().empty()) std::printf("%s", report.ToString().c_str());
  std::printf("%zu live unservable cell(s) across the trajectory\n", wa->unservable_cells);
  return 0;
}

/// `.migrate`: run the built-in TPC-W source -> object migration *online* on
/// a scratch in-memory database — batched data movement with a journaled
/// cursor — including a simulated crash mid-operator and a resume from the
/// journal.
int RunMigrateDemo(Database* session_db) {
  if (session_db->HasPendingMigration()) {
    std::printf("session database has a pending migration journal:\n  %s\n",
                session_db->migration_journal().ToString().c_str());
  }
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto opset = ComputeOperatorSet(schema->source, schema->object);
  if (!opset.ok()) {
    std::printf("error: %s\n", opset.status().ToString().c_str());
    return 1;
  }
  auto topo = opset->TopologicalOrder();
  if (!topo.ok()) {
    std::printf("error: %s\n", topo.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny());
  Database db(2048);
  Status mat = data->Materialize(&db, schema->source);
  if (!mat.ok()) {
    std::printf("error: %s\n", mat.ToString().c_str());
    return 1;
  }

  MigrationExecutor exec(&db, data.get());
  MigrationOptions options;
  options.batch_rows = 128;
  options.rollback_on_error = false;  // keep the journal for the resume demo
  uint64_t batches_seen = 0;
  bool inject = true;
  options.on_batch = [&](const MigrationBatchEvent& e) -> Status {
    ++batches_seen;
    if (inject && batches_seen == 3) {
      inject = false;
      return Status::IOError("injected crash after batch " +
                             std::to_string(e.batch_index) + " (demo)");
    }
    return Status::OK();
  };
  exec.set_options(options);

  std::printf("TPC-W source -> object, online: %zu operators, %llu-row batches\n",
              opset->size(), static_cast<unsigned long long>(options.batch_rows));
  PhysicalSchema current = schema->source;
  uint64_t total_io = 0;
  for (int idx : *topo) {
    const MigrationOperator& op = opset->ops[static_cast<size_t>(idx)];
    auto io = exec.Apply(op, &current);
    if (!io.ok()) {
      std::printf("  op#%d interrupted: %s\n", op.id, io.status().message().c_str());
      std::printf("    journal: %s\n", db.migration_journal().ToString().c_str());
      io = exec.Resume(op, &current);
      if (!io.ok()) {
        std::printf("error: resume failed: %s\n", io.status().ToString().c_str());
        return 1;
      }
      std::printf("  op#%d resumed from the journal and finished (+%llu page I/O)\n", op.id,
                  static_cast<unsigned long long>(*io));
    } else {
      std::printf("  op#%d done (%llu page I/O), journal %s\n", op.id,
                  static_cast<unsigned long long>(*io),
                  db.HasPendingMigration() ? "STILL ACTIVE?" : "cleared");
    }
    total_io += *io;
  }
  std::printf("migrated to the object schema: %zu tables, %llu total page I/O, %llu batches\n",
              db.TableNames().size(), static_cast<unsigned long long>(total_io),
              static_cast<unsigned long long>(batches_seen));
  return 0;
}

/// `.serve`: run the TPC-W source -> object migration on a one-shard fleet
/// while four concurrent sessions execute the mixed-version workload against
/// live schema snapshots, then print the serve-window metrics.
int RunServeDemo() {
  std::unique_ptr<TpcwSchema> schema = BuildTpcwSchema();
  auto queries = BuildTpcwWorkload(*schema);
  if (!queries.ok()) {
    std::printf("error: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto fleet_schedule = PlanFleetSchedule(schema->source, schema->object);
  if (!fleet_schedule.ok()) {
    std::printf("error: %s\n", fleet_schedule.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<LogicalDatabase> data = GenerateTpcwData(*schema, ScaleTiny());
  ShardOptions shard_options;
  shard_options.pool_pages = 2048;
  auto shard = TenantShard::Create(0, schema->source, data.get(), std::move(shard_options));
  if (!shard.ok()) {
    std::printf("error: %s\n", shard.status().ToString().c_str());
    return 1;
  }
  SharedPlanCache cache;
  FleetScheduler fleet(std::move(*fleet_schedule), &cache);
  fleet.AddShard(std::move(*shard));

  FleetOptions options;
  options.migration_lanes = 1;
  options.serve_lanes = 4;
  options.min_queries_per_lane = 8;
  options.migration.batch_rows = 128;
  std::vector<double> freqs(queries->size(), 1.0);
  std::printf("TPC-W source -> object under load: %zu operators, %zu sessions\n",
              fleet.schedule().steps(), options.serve_lanes);
  auto metrics = fleet.Run(*queries, freqs, options);
  if (!metrics.ok()) {
    std::printf("error: %s\n", metrics.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "served %llu queries (%llu unservable on an intermediate, %llu errors) in %.1f ms\n"
      "throughput %.1f q/s, latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
      static_cast<unsigned long long>(metrics->queries),
      static_cast<unsigned long long>(metrics->unservable),
      static_cast<unsigned long long>(metrics->errors), metrics->wall_ms,
      metrics->throughput_qps, metrics->p50_ms, metrics->p95_ms, metrics->p99_ms);
  return metrics->errors == 0 ? 0 : 1;
}

/// `.lockgraph`: offline lock-order analysis of whatever the instrumented
/// latches recorded in this process, DOT graph included. Nonzero exit when
/// the analysis finds violations, so scripts/check.sh can gate on it.
int RunLockGraphDemo() {
  LockOrderGraph graph = LockRegistry::Instance().Snapshot();
  if (graph.acquisitions == 0) {
    std::printf(
        "no latch acquisitions recorded (build with -DPROGSCHEMA_LOCKDEP=ON and run .serve "
        "or .migrate first); showing the canonical hierarchy\n");
    graph = CanonicalLockGraph();
  } else {
    std::printf("recorded %llu acquisitions over %zu lock classes, %zu ordered pairs\n",
                static_cast<unsigned long long>(graph.acquisitions), graph.classes.size(),
                graph.edges.size());
  }
  DiagnosticReport report = AnalyzeLockOrder(graph);
  if (report.diagnostics().empty()) {
    std::printf("clean: no diagnostics\n");
  } else {
    std::printf("%s\n", report.ToString().c_str());
  }
  std::printf("%s", LockGraphToDot(graph).c_str());
  return static_cast<int>(report.errors());
}

int RunStatement(Session* session, const std::string& stmt) {
  std::string trimmed(Trim(stmt));
  if (trimmed.empty()) return 0;
  if (trimmed == ".tables") {
    for (const auto& name : session->db()->TableNames()) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (trimmed == ".verify") return RunVerifyDemo();
  if (trimmed == ".interactions") return RunInteractionsDemo();
  if (trimmed == ".coststats") return RunCostStatsDemo();
  if (trimmed == ".writability") return RunWritabilityDemo();
  if (trimmed == ".migrate") return RunMigrateDemo(session->db());
  if (trimmed == ".serve") return RunServeDemo();
  if (trimmed == ".lockgraph") return RunLockGraphDemo();
  if (StartsWith(ToUpper(trimmed), "EXPLAIN ")) {
    auto plan = session->Explain(trimmed.substr(8));
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", plan->c_str());
    return 0;
  }
  auto result = session->Execute(trimmed);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  PrintResult(*result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Database> owned;
  std::string db_path;
  int first_stmt = 1;
  if (argc > 1 && StartsWith(argv[1], "--db=")) {
    db_path = argv[1] + 5;
    first_stmt = 2;
    auto opened = Database::Open(db_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", db_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    owned = opened.MoveValueUnsafe();
  } else {
    owned = std::make_unique<Database>(4096);
  }
  Database& db = *owned;
  Session session(&db);

  // A little starter catalog so the in-memory shell is useful immediately;
  // persistent databases keep whatever they already contain.
  if (!db.HasTable("book") && db_path.empty()) {
    const char* bootstrap[] = {
        "CREATE TABLE book (b_id BIGINT NOT NULL, title VARCHAR(40), author VARCHAR(20), "
        "price DOUBLE, PRIMARY KEY (b_id))",
        "INSERT INTO book VALUES (1, 'A Relational Model of Data', 'Codd', 10.0), "
        "(2, 'The Design of Postgres', 'Stonebraker', 12.5), "
        "(3, 'Access Path Selection', 'Selinger', 9.5)",
        "ANALYZE",
    };
    for (const char* stmt : bootstrap) {
      auto r = session.Execute(stmt);
      if (!r.ok()) {
        std::fprintf(stderr, "bootstrap failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
    }
  }
  auto finish = [&]() {
    if (!db_path.empty()) {
      Status s = db.Checkpoint();
      if (!s.ok()) std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    }
  };

  if (argc > first_stmt) {
    int rc = 0;
    for (int i = first_stmt; i < argc; ++i) rc |= RunStatement(&session, argv[i]);
    finish();
    return rc;
  }

  std::printf(
      "ProgSchema SQL shell — try: SELECT * FROM book; (.tables, .verify, .interactions, "
      ".coststats, .writability, .migrate, .serve, .lockgraph, .quit)\n");
  std::string buffer, line;
  while (true) {
    std::printf(buffer.empty() ? "sql> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(Trim(line));
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (!trimmed.empty() && trimmed[0] == '.') {
      RunStatement(&session, trimmed);
      continue;
    }
    buffer += line + "\n";
    if (trimmed.size() >= 1 && trimmed.back() == ';') {
      RunStatement(&session, buffer);
      buffer.clear();
    }
  }
  finish();
  return 0;
}

// MigrationSimulation: the experiment harness of Section IV. Runs the three
// situations the paper compares under one workload schedule:
//   Opt-Schema  — source and object databases coexist; old queries run on
//                 source, new queries on object (the ideal lower bound);
//   Obj-Schema  — one database already migrated to the object schema; every
//                 query is rewritten onto it (the classical one-shot
//                 migration / "existing system" upper bound);
//   Pro-Schema  — the paper's progressive migration: one database whose
//                 schema evolves at every migration point as chosen by LAA
//                 or GAA.
//
// Phase-Cost is measured as the paper does: C_i x F_i per query, with C_i
// the page I/O of one cold-cache execution of query i on the current
// schema, F_i its frequency in the phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/logical_database.h"
#include "core/migration_planner.h"
#include "core/workload.h"
#include "storage/database.h"

namespace pse {

enum class Situation { kOptSchema, kProSchema, kObjSchema };
enum class PlannerKind { kLaa, kGaa };

const char* SituationName(Situation s);

struct SimulationConfig {
  size_t buffer_pool_pages = 4096;
  PlannerKind planner = PlannerKind::kLaa;
  /// GAA's options. Its `unservable_penalty` also prices, in every
  /// situation, a query the current schema cannot serve yet: that multiple
  /// of the query's estimated cost on the object schema.
  GaaOptions gaa;
  /// Execute queries for real and count buffer I/O (true), or use the cost
  /// model's estimates only (false; much faster, used by big sweeps).
  bool measure_actual = true;
  /// Plan from a WorkloadCollector's observations instead of the true
  /// schedule: at each migration point the planner sees only the phases
  /// measured so far and a least-squares forecast of the rest (the paper's
  /// "predicted trend may not be very precise" setting). The first point
  /// uses the true first-phase mix (the customer-predefined estimate).
  bool forecast_from_observations = false;
  /// Data growth: visible_rows[p][e] = rows of entity e visible during
  /// phase p (monotone per entity; last phase <= generated rows). Empty =
  /// static data. Growth inserts happen between phases and are not charged
  /// to query or migration I/O.
  std::vector<std::vector<size_t>> visible_rows;
};

struct PhaseReport {
  double query_cost = 0;     ///< the paper's Phase-Cost (sum C_i * F_i)
  double migration_io = 0;   ///< data-movement I/O at this migration point
  std::vector<int> ops_applied;
  std::string schema_desc;
};

struct SituationReport {
  Situation situation = Situation::kProSchema;
  std::vector<PhaseReport> phases;
  /// I/O of the forced completion step after the last phase (Pro only).
  double final_migration_io = 0;

  double OverallCost() const;
  double TotalMigrationIo() const;
};

/// \brief Experiment driver for one (schedule, data) instance.
class MigrationSimulation {
 public:
  /// `phase_freqs[p][q]` is the frequency of queries[q] during phase p.
  /// `phase_stats` holds one entry (static data) or one per phase.
  MigrationSimulation(const PhysicalSchema* source, const PhysicalSchema* object,
                      const std::vector<WorkloadQuery>* queries,
                      std::vector<std::vector<double>> phase_freqs,
                      const LogicalDatabase* data, SimulationConfig config);

  /// Runs one situation end to end on a fresh database.
  Result<SituationReport> Run(Situation situation);

  /// Last Pro run's planner search effort (schemas estimated / GA evals).
  size_t last_planner_evaluations() const { return last_planner_evaluations_; }

  /// Data statistics in effect during `phase`.
  const LogicalStats& StatsAt(size_t phase) const {
    return phase_stats_.size() == 1 ? phase_stats_[0]
                                    : phase_stats_[std::min(phase, phase_stats_.size() - 1)];
  }

 private:
  /// Measures sum C_i*F_i for one phase on `schema` materialized in `db`.
  Result<double> MeasurePhase(Database* db, const PhysicalSchema& schema,
                              const std::vector<double>& freqs, const LogicalStats& stats);
  /// One query's cold-cache execution I/O (or estimate).
  Result<double> MeasureQuery(Database* db, const PhysicalSchema& schema,
                              const LogicalQuery& query, const LogicalStats& stats);

  const PhysicalSchema* source_;
  const PhysicalSchema* object_;
  const std::vector<WorkloadQuery>* queries_;
  std::vector<std::vector<double>> phase_freqs_;
  const LogicalDatabase* data_;
  SimulationConfig config_;
  std::vector<LogicalStats> phase_stats_;
  size_t last_planner_evaluations_ = 0;
};

}  // namespace pse

// Migration-plan static verifier: checks migration artifacts *before*
// anything executes, so ill-formed operator sets, lossy splits, and
// unanswerable workloads surface as structured Diagnostics instead of
// execution-time failures (or silent information loss).
//
// Three check families (each toggleable via VerifyOptions):
//
//  (a) operator-set well-formedness — dependency arity/cycles, dangling
//      table/attribute/FD references, each operator applicable exactly once
//      when the full set is replayed symbolically on the current schema, and
//      source -> object reachability (the replay must converge to a schema
//      structurally equivalent to the object schema);
//
//  (b) information preservation — every source attribute remains derivable
//      at every intermediate schema LAA may choose (dependency-closed
//      subsets when 2^m is affordable, topological prefixes otherwise);
//      every SplitTable is lossless-join (the moved fragment's anchor key
//      functionally determines the moved attributes and stays joinable to
//      the remainder); every cross-entity CombineTable is flagged with its
//      tuple-preservation precondition (parent rows without children);
//
//  (c) workload lint — every workload query must be answerable (rewritable)
//      on the object schema; old-version queries on the current schema;
//      queries unanswerable on a candidate intermediate schema are reported
//      so planners can reject candidates up front (expected deferrals of
//      new-attribute queries are notes, anything else a warning).
#pragma once

#include <vector>

#include "analysis/diagnostic.h"
#include "core/mapping.h"
#include "core/workload.h"

namespace pse {

struct MigrationContext;  // core/migration_planner.h

/// Tuning knobs for VerifyMigration.
struct VerifyOptions {
  bool check_preservation = true;
  bool check_workload = true;
  /// Candidate intermediate schemas are enumerated exhaustively (every
  /// dependency-closed subset of the remaining operators, mirroring LAA)
  /// while m <= max_exhaustive_ops; above that, topological prefixes.
  size_t max_exhaustive_ops = 12;
  /// Emit a note when a query is unanswerable on an intermediate schema
  /// only because the CreateTable introducing a new attribute it needs has
  /// not been applied yet (the expected fallback-pricing case).
  bool note_expected_deferrals = true;
  /// Require old-version queries to be answerable on the current (source)
  /// schema. On by default; the schema advisor turns it off because its seed
  /// legitimately lacks the workload attributes it is about to create.
  bool check_source_answerability = true;
};

/// The artifacts under verification. `source` is the schema at the current
/// migration point; `applied` (optional, all-false when null) marks operators
/// already applied in earlier points, which are reference-checked but not
/// replayed. `queries`/`phase_freqs` are optional: null skips workload lint.
struct VerifyInput {
  const PhysicalSchema* source = nullptr;
  const PhysicalSchema* object = nullptr;
  const OperatorSet* opset = nullptr;
  const std::vector<bool>* applied = nullptr;
  const std::vector<WorkloadQuery>* queries = nullptr;
  const std::vector<std::vector<double>>* phase_freqs = nullptr;
};

/// \brief Runs all enabled checks; never fails — problems come back as
/// diagnostics (report.ok() == no errors).
DiagnosticReport VerifyMigration(const VerifyInput& input, const VerifyOptions& options = {});

/// Adapter: verifies a planner's MigrationContext (current schema, object,
/// opset, applied mask, workload). Used by SelectOpsLaa/PlanGaa as a cheap
/// well-formedness gate before costing candidates.
DiagnosticReport VerifyContext(const MigrationContext& ctx, const VerifyOptions& options = {});

/// The logical attributes a query references (select + filters + group by),
/// resolved by name. Unresolvable names are skipped and reported through
/// `report` (error kWorkloadUnanswerableObject) when it is non-null.
std::vector<AttrId> ReferencedAttrs(const LogicalQuery& query, const LogicalSchema& logical,
                                    DiagnosticReport* report = nullptr);

}  // namespace pse

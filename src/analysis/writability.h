// Write-safety information-flow analyzer: per-version DML writability
// matrices over migration trajectories.
//
// The paper keeps two live application versions on one evolving schema, but
// only queries are rewritten; nothing answers "may app-version V issue an
// INSERT/UPDATE/DELETE against its logical table T while intermediate schema
// S_i is current?". Following the bidirectional-lens view of schema
// evolution (BiDEL's SMOs, bidirectional transformations), each of our three
// operators is classified by the information flow of its forward and
// backward lenses:
//
//   kInvertible                 no information is lost in either direction —
//                               a write through the lens maps to exactly one
//                               write on the other side (same-entity splits
//                               and re-combines);
//   kRecoverableWithProvenance  the mapping collapses or duplicates rows
//                               (cross-entity CombineTable join/dedup,
//                               SplitTable that de-duplicates parent
//                               attributes out of a denormalized fragment);
//                               writes remain translatable only if the
//                               system keeps per-row provenance;
//   kLossy                      the source side cannot represent the write
//                               at all (CreateTable backward: the new
//                               attributes have no pre-create storage).
//
// From the lenses and a trajectory (which operators run at which migration
// point), AnalyzeWritability derives for every intermediate schema a
// *writability matrix* — app-version x logical-table x DML-kind —
//
//   kSafe              the statement touches exactly one exclusive fragment
//                      with the table's own anchor: a plain 1:1 write;
//   kNeedsPropagation  servable, but the write must fan out to several
//                      fragments, merge into a shared/denormalized table, or
//                      consult provenance — the DML rewriter has work to do;
//   kUnservable        some attribute has no storage on this schema (not yet
//                      created): the statement cannot execute at all —
//
// with per-cell provenance naming the operator that caused the downgrade
// (for the old version: the last applied operator touching the table's
// attributes; for the new version: the first still-pending one). Findings
// surface as the WRITE_* diagnostic family through DiagnosticReport.
//
// The DML router (core/rewriter_dml.h) refuses exactly the statements whose
// ClassifyVersionTable cell is kUnservable, and AnalyzeConcurrency consumes
// the matrix so serving-phase lints cover writes, not just reads. The
// SELECT column of the matrix is computed statically (attribute-placement
// only) and agrees with Rewriter servability on valid schemas —
// property-tested in tests/analysis/writability_test.cc. DESIGN.md §16
// spells out the rules.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/mapping.h"

namespace pse {

enum class DmlKind { kSelect = 0, kInsert = 1, kUpdate = 2, kDelete = 3 };
constexpr size_t kNumDmlKinds = 4;
const char* DmlKindName(DmlKind kind);

enum class Writability { kSafe, kNeedsPropagation, kUnservable };
const char* WritabilityName(Writability level);

enum class LensClass { kInvertible, kRecoverableWithProvenance, kLossy };
const char* LensClassName(LensClass lens);

/// Forward/backward information-flow classification of one operator.
/// Forward = translating an old-version write onto the post-operator schema;
/// backward = translating a new-version write onto the pre-operator schema.
struct OperatorLens {
  int op = -1;  ///< index into the OperatorSet
  LensClass forward = LensClass::kInvertible;
  LensClass backward = LensClass::kInvertible;
  std::string detail;  ///< one-line why
};

/// One matrix cell: (version, table, DML kind) on one intermediate schema.
struct WritabilityCell {
  Writability level = Writability::kSafe;
  /// OperatorSet index of the operator that caused the downgrade; -1 when
  /// the cell is kSafe or no single operator is responsible.
  int provenance_op = -1;
  std::string detail;  ///< one-line why (empty when kSafe)
};

/// A logical table as one application version sees it: the anchor entity and
/// the non-key attributes its rows carry. DML statements of that version are
/// written against exactly these tables.
struct VersionTable {
  std::string name;
  EntityId anchor = kInvalidId;
  std::vector<AttrId> attrs;  ///< non-key attributes, sorted by AttrId
};

/// The version tables of a physical schema (one per table, non-key attrs).
std::vector<VersionTable> VersionTablesOf(const PhysicalSchema& schema);

/// Classifies every DML kind of version table `table` against the physical
/// layout `schema`, from attribute placement alone (no provenance — see
/// AnalyzeWritability for trajectory-aware attribution). Indexed by DmlKind.
std::array<WritabilityCell, kNumDmlKinds> ClassifyVersionTable(const VersionTable& table,
                                                               const PhysicalSchema& schema);

/// The matrix of one application version on one intermediate schema:
/// cells[t][k] = (version table t, DmlKind k).
struct VersionMatrix {
  std::vector<std::array<WritabilityCell, kNumDmlKinds>> cells;
};

/// Both versions' matrices at one trajectory step.
struct StepWritability {
  size_t step = 0;  ///< 0 = the starting schema, k = after trajectory[k-1]
  VersionMatrix old_version;
  VersionMatrix new_version;
};

struct WritabilityInput {
  /// The old application's layout (the migration's original source schema —
  /// its tables define what old-version DML is written against).
  const PhysicalSchema* old_schema = nullptr;
  /// The new application's layout (the object schema).
  const PhysicalSchema* new_schema = nullptr;
  const OperatorSet* opset = nullptr;
  /// Operators applied before the trajectory starts (empty = none); their
  /// effect is part of step 0's schema.
  std::vector<bool> applied;
  /// trajectory[k] = operator indices applied at migration point k, in any
  /// dependency-respecting order. Empty = one step per remaining operator in
  /// topological order. May cover a prefix of the remaining operators;
  /// operators never scheduled still get lenses and provenance ("pending").
  std::vector<std::vector<int>> trajectory;
  /// Which versions are live (drive WRITE_UNSERVABLE_WINDOW and the
  /// unservable_cells tally; both matrices are always computed).
  bool old_live = true;
  bool new_live = true;
};

/// \brief The full analysis over one trajectory.
struct WritabilityAnalysis {
  std::vector<VersionTable> old_tables;
  std::vector<VersionTable> new_tables;
  /// Lens classification of every operator, indexed by OperatorSet index.
  std::vector<OperatorLens> lenses;
  /// The trajectory analyzed (resolved when the input left it empty).
  std::vector<std::vector<int>> trajectory;
  /// Matrices per intermediate schema: steps[0] = starting schema,
  /// steps[k] = after trajectory[k-1]; trajectory.size()+1 entries.
  std::vector<StepWritability> steps;
  /// kUnservable cells of *live* versions across all steps and DML kinds —
  /// the trajectory's write-unservable-window mass.
  size_t unservable_cells = 0;

  /// Human-readable matrices, one block per step, deterministic order.
  std::string ToString(const OperatorSet& opset, const LogicalSchema& logical) const;
};

/// \brief Runs the analysis; appends WRITE_* diagnostics to `report` (when
/// given): WRITE_LOSSY_COMBINE and WRITE_SPLIT_ROUTING_AMBIGUOUS per
/// operator whose lens needs provenance, WRITE_UNSERVABLE_WINDOW per live
/// (version, table) with an unservable write window, WRITE_PROVENANCE_
/// REQUIRED per (version, table) whose writes must consult provenance.
/// All WRITE_* diagnostics are warnings/notes, never errors.
///
/// Fails only on malformed input (missing schemas, arity mismatch, a
/// trajectory that is not dependency-closed or does not replay) — run
/// VerifyMigration first for a full report.
Result<WritabilityAnalysis> AnalyzeWritability(const WritabilityInput& input,
                                               DiagnosticReport* report = nullptr);

}  // namespace pse

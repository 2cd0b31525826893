// Structured diagnostics for the migration-plan static verifier.
//
// A Diagnostic is one finding: a severity, a stable machine-readable code
// (documented in DESIGN.md §"Static verification"), a location string
// ("op#3", "query 'N7'", "table 'user'"), and a human-readable message.
// A DiagnosticReport accumulates findings; callers gate on errors() == 0 or
// convert the report into a Status for Result-style plumbing.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace pse {

enum class DiagSeverity { kError, kWarning, kNote };

/// Stable diagnostic codes. The string form (DiagCodeName) is part of the
/// tool surface: tests, the migration_lint CLI, and DESIGN.md reference it.
enum class DiagCode {
  // -- operator-set well-formedness --
  kOpsetArity,          ///< OPSET_ARITY: deps/ops arity or dep index broken
  kOpsetDepCycle,       ///< OPSET_DEP_CYCLE: dependency graph has a cycle
  kOpsetDanglingRef,    ///< OPSET_DANGLING_REF: attr/entity/FD unresolvable
  kOpsetNotApplicable,  ///< OPSET_NOT_APPLICABLE: op fails to apply in order
  kOpsetReapply,        ///< OPSET_REAPPLY: op applicable more than once
  kOpsetNoConvergence,  ///< OPSET_NO_CONVERGENCE: replay != object schema
  kSchemaInvalid,       ///< SCHEMA_INVALID: source/object fails Validate()
  // -- information preservation --
  kPreserveAttrLost,        ///< PRESERVE_ATTR_LOST: source attr underivable
  kPreserveSplitLossy,      ///< PRESERVE_SPLIT_LOSSY: split not lossless-join
  kPreserveCombineCoverage, ///< PRESERVE_COMBINE_COVERAGE: parent rows may drop
  // -- workload lint --
  kWorkloadArity,                  ///< WORKLOAD_ARITY: freq vector mismatch
  kWorkloadUnanswerableSource,     ///< WORKLOAD_UNANSWERABLE_SOURCE
  kWorkloadUnanswerableObject,     ///< WORKLOAD_UNANSWERABLE_OBJECT
  kWorkloadUnanswerableIntermediate, ///< WORKLOAD_UNANSWERABLE_INTERMEDIATE
  // -- interaction analysis --
  kAnalysisCostIrrelevantOp,  ///< ANALYSIS_COST_IRRELEVANT_OP: no query touches op
  // -- concurrent serving --
  kConcurrencyQuiesceStall,    ///< CONCURRENCY_QUIESCE_STALL: publish waits on long scans
  kConcurrencyHotSource,       ///< CONCURRENCY_HOT_SOURCE: copy loop contends with hot reads
  kConcurrencyUnservablePhase, ///< CONCURRENCY_UNSERVABLE_PHASE: live query unservable mid-window
  kConcurrencySingleLane,      ///< CONCURRENCY_SINGLE_LANE: serve window has < 2 sessions
  // -- write-safety information flow --
  kWriteLossyCombine,          ///< WRITE_LOSSY_COMBINE: combine collapses/duplicates rows
  kWriteSplitRoutingAmbiguous, ///< WRITE_SPLIT_ROUTING_AMBIGUOUS: old inserts cannot route
  kWriteUnservableWindow,      ///< WRITE_UNSERVABLE_WINDOW: live version cannot write a table
  kWriteProvenanceRequired,    ///< WRITE_PROVENANCE_REQUIRED: writes need row provenance
  // -- lock-order (lockdep) analysis --
  kLockOrderInversion, ///< LOCK_ORDER_INVERSION: acquisition against rank order
  kLockUpgrade,        ///< LOCK_UPGRADE: shared->exclusive on a held latch
  kLockRecursive,      ///< LOCK_RECURSIVE: latch re-acquired while held
  kLockHeldAcrossIo,   ///< LOCK_HELD_ACROSS_IO: disk I/O under a no-I/O latch
  kLockCycle,          ///< LOCK_CYCLE: acquisition-order graph has a cycle
  kLockGraphClean,     ///< LOCK_GRAPH_CLEAN: recorded graph is violation-free
};

const char* DiagCodeName(DiagCode code);
const char* DiagSeverityName(DiagSeverity severity);

/// One verifier finding.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  DiagCode code = DiagCode::kOpsetArity;
  std::string location;  ///< "op#3", "query 'N7'", "phase 2", ...
  std::string message;

  /// "error OPSET_DEP_CYCLE [op#3]: ..." — one line, no trailing newline.
  std::string ToString() const;
};

/// \brief Ordered collection of diagnostics with severity tallies.
class DiagnosticReport {
 public:
  void Add(DiagSeverity severity, DiagCode code, std::string location, std::string message);
  void AddError(DiagCode code, std::string location, std::string message) {
    Add(DiagSeverity::kError, code, std::move(location), std::move(message));
  }
  void AddWarning(DiagCode code, std::string location, std::string message) {
    Add(DiagSeverity::kWarning, code, std::move(location), std::move(message));
  }
  void AddNote(DiagCode code, std::string location, std::string message) {
    Add(DiagSeverity::kNote, code, std::move(location), std::move(message));
  }
  /// Appends all of `other`'s diagnostics.
  void Merge(const DiagnosticReport& other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  size_t errors() const { return num_errors_; }
  size_t warnings() const { return num_warnings_; }
  size_t notes() const { return diags_.size() - num_errors_ - num_warnings_; }
  /// True when the report carries no errors (warnings/notes allowed).
  bool ok() const { return num_errors_ == 0; }
  bool HasCode(DiagCode code) const;
  /// Diagnostics carrying `code`, in report order.
  std::vector<Diagnostic> WithCode(DiagCode code) const;

  /// One line per diagnostic plus a tally footer; "" when empty.
  std::string ToString() const;
  /// OK when ok(); otherwise InvalidArgument carrying the first error line
  /// and the error count.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diags_;
  size_t num_errors_ = 0;
  size_t num_warnings_ = 0;
};

}  // namespace pse

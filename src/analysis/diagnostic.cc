#include "analysis/diagnostic.h"

namespace pse {

const char* DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kOpsetArity:
      return "OPSET_ARITY";
    case DiagCode::kOpsetDepCycle:
      return "OPSET_DEP_CYCLE";
    case DiagCode::kOpsetDanglingRef:
      return "OPSET_DANGLING_REF";
    case DiagCode::kOpsetNotApplicable:
      return "OPSET_NOT_APPLICABLE";
    case DiagCode::kOpsetReapply:
      return "OPSET_REAPPLY";
    case DiagCode::kOpsetNoConvergence:
      return "OPSET_NO_CONVERGENCE";
    case DiagCode::kSchemaInvalid:
      return "SCHEMA_INVALID";
    case DiagCode::kPreserveAttrLost:
      return "PRESERVE_ATTR_LOST";
    case DiagCode::kPreserveSplitLossy:
      return "PRESERVE_SPLIT_LOSSY";
    case DiagCode::kPreserveCombineCoverage:
      return "PRESERVE_COMBINE_COVERAGE";
    case DiagCode::kWorkloadArity:
      return "WORKLOAD_ARITY";
    case DiagCode::kWorkloadUnanswerableSource:
      return "WORKLOAD_UNANSWERABLE_SOURCE";
    case DiagCode::kWorkloadUnanswerableObject:
      return "WORKLOAD_UNANSWERABLE_OBJECT";
    case DiagCode::kWorkloadUnanswerableIntermediate:
      return "WORKLOAD_UNANSWERABLE_INTERMEDIATE";
    case DiagCode::kAnalysisCostIrrelevantOp:
      return "ANALYSIS_COST_IRRELEVANT_OP";
    case DiagCode::kConcurrencyQuiesceStall:
      return "CONCURRENCY_QUIESCE_STALL";
    case DiagCode::kConcurrencyHotSource:
      return "CONCURRENCY_HOT_SOURCE";
    case DiagCode::kConcurrencyUnservablePhase:
      return "CONCURRENCY_UNSERVABLE_PHASE";
    case DiagCode::kConcurrencySingleLane:
      return "CONCURRENCY_SINGLE_LANE";
    case DiagCode::kWriteLossyCombine:
      return "WRITE_LOSSY_COMBINE";
    case DiagCode::kWriteSplitRoutingAmbiguous:
      return "WRITE_SPLIT_ROUTING_AMBIGUOUS";
    case DiagCode::kWriteUnservableWindow:
      return "WRITE_UNSERVABLE_WINDOW";
    case DiagCode::kWriteProvenanceRequired:
      return "WRITE_PROVENANCE_REQUIRED";
    case DiagCode::kLockOrderInversion:
      return "LOCK_ORDER_INVERSION";
    case DiagCode::kLockUpgrade:
      return "LOCK_UPGRADE";
    case DiagCode::kLockRecursive:
      return "LOCK_RECURSIVE";
    case DiagCode::kLockHeldAcrossIo:
      return "LOCK_HELD_ACROSS_IO";
    case DiagCode::kLockCycle:
      return "LOCK_CYCLE";
    case DiagCode::kLockGraphClean:
      return "LOCK_GRAPH_CLEAN";
  }
  return "UNKNOWN";
}

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kNote:
      return "note";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out = DiagSeverityName(severity);
  out += " ";
  out += DiagCodeName(code);
  if (!location.empty()) {
    out += " [" + location + "]";
  }
  out += ": " + message;
  return out;
}

void DiagnosticReport::Add(DiagSeverity severity, DiagCode code, std::string location,
                           std::string message) {
  if (severity == DiagSeverity::kError) {
    ++num_errors_;
  } else if (severity == DiagSeverity::kWarning) {
    ++num_warnings_;
  }
  diags_.push_back(Diagnostic{severity, code, std::move(location), std::move(message)});
}

void DiagnosticReport::Merge(const DiagnosticReport& other) {
  for (const Diagnostic& d : other.diags_) {
    Add(d.severity, d.code, d.location, d.message);
  }
}

bool DiagnosticReport::HasCode(DiagCode code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

std::vector<Diagnostic> DiagnosticReport::WithCode(DiagCode code) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags_) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

std::string DiagnosticReport::ToString() const {
  if (diags_.empty()) return "";
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += d.ToString() + "\n";
  }
  out += std::to_string(errors()) + " error(s), " + std::to_string(warnings()) +
         " warning(s), " + std::to_string(notes()) + " note(s)\n";
  return out;
}

Status DiagnosticReport::ToStatus() const {
  if (ok()) return Status::OK();
  for (const Diagnostic& d : diags_) {
    if (d.severity == DiagSeverity::kError) {
      return Status::InvalidArgument("migration verification failed (" +
                                     std::to_string(errors()) + " error(s)); first: " +
                                     d.ToString());
    }
  }
  return Status::InvalidArgument("migration verification failed");
}

}  // namespace pse

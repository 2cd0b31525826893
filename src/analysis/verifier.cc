#include "analysis/verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/migration_planner.h"
#include "core/rewriter.h"

namespace pse {

namespace {

std::string OpLocation(size_t index) { return "op#" + std::to_string(index); }

std::string QueryLocation(const LogicalQuery& q) {
  return "query '" + (q.name.empty() ? std::string("?") : q.name) + "'";
}

std::string SubsetToString(const std::vector<int>& subset) {
  std::string out = "{";
  for (size_t i = 0; i < subset.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(subset[i]);
  }
  return out + "}";
}

bool ValidEntity(const LogicalSchema& L, EntityId e) { return e < L.num_entities(); }
bool ValidAttr(const LogicalSchema& L, AttrId a) { return a < L.num_attributes(); }

/// Reference-level checks of one operator against the logical schema alone
/// (no physical state needed): id ranges, FD/key resolvability, split
/// anchor determinacy. Returns false when the operator is too broken to
/// participate in a symbolic replay.
bool CheckOperatorRefs(const LogicalSchema& L, const MigrationOperator& op, size_t index,
                       DiagnosticReport* report) {
  bool usable = true;
  switch (op.kind) {
    case OperatorKind::kCreateTable: {
      if (!ValidEntity(L, op.create_entity)) {
        report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                         "create references entity id " + std::to_string(op.create_entity) +
                             " outside the logical schema");
        return false;
      }
      if (op.create_attrs.empty()) {
        report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                         "create with an empty attribute set");
        usable = false;
      }
      for (AttrId a : op.create_attrs) {
        if (!ValidAttr(L, a)) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "create references attribute id " + std::to_string(a) +
                               " outside the logical schema (dangling FD)");
          usable = false;
          continue;
        }
        if (L.attr(a).is_key) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "create cannot introduce key attribute '" + L.attr(a).name + "'");
          usable = false;
        } else if (L.attr(a).entity != op.create_entity) {
          report->AddError(
              DiagCode::kOpsetDanglingRef, OpLocation(index),
              "FD key(" + L.entity(op.create_entity).name + ") -> '" + L.attr(a).name +
                  "' is unresolvable: the attribute belongs to entity '" +
                  L.entity(L.attr(a).entity).name + "'");
          usable = false;
        }
      }
      break;
    }
    case OperatorKind::kSplitTable: {
      if (!ValidEntity(L, op.split_moved_anchor)) {
        report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                         "split references anchor entity id " +
                             std::to_string(op.split_moved_anchor) +
                             " outside the logical schema");
        return false;
      }
      if (op.split_moved.empty()) {
        report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                         "split with an empty moved-attribute set");
        usable = false;
      }
      for (AttrId a : op.split_moved) {
        if (!ValidAttr(L, a)) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "split references attribute id " + std::to_string(a) +
                               " outside the logical schema");
          usable = false;
          continue;
        }
        if (L.attr(a).is_key) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "split cannot move key attribute '" + L.attr(a).name + "'");
          usable = false;
        } else if (!L.Reaches(op.split_moved_anchor, L.attr(a).entity)) {
          // The moved fragment is keyed by the anchor's key; an attribute of
          // an entity the anchor does not determine cannot be re-joined
          // losslessly.
          report->AddError(
              DiagCode::kPreserveSplitLossy, OpLocation(index),
              "split is not lossless-join: anchor '" + L.entity(op.split_moved_anchor).name +
                  "' does not functionally determine moved attribute '" + L.attr(a).name +
                  "' (entity '" + L.entity(L.attr(a).entity).name + "')");
          usable = false;
        }
      }
      break;
    }
    case OperatorKind::kCombineTable: {
      for (AttrId a : {op.combine_left_rep, op.combine_right_rep}) {
        if (!ValidAttr(L, a)) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "combine references attribute id " + std::to_string(a) +
                               " outside the logical schema");
          usable = false;
        } else if (L.attr(a).is_key) {
          report->AddError(DiagCode::kOpsetDanglingRef, OpLocation(index),
                           "combine representative '" + L.attr(a).name +
                               "' is a key attribute (must be a stored non-key attribute)");
          usable = false;
        }
      }
      break;
    }
  }
  return usable;
}

/// Pre-apply checks of one operator against the concrete schema state during
/// the symbolic replay: split lossless-join w.r.t. the carrying table, and
/// the combine tuple-preservation precondition. Returns false when a
/// preservation *error* was emitted (the subsequent ApplyOperator failure,
/// if any, is then redundant and suppressed by the caller).
bool CheckOperatorPreservation(const LogicalSchema& L, const PhysicalSchema& before,
                               const MigrationOperator& op, size_t index,
                               DiagnosticReport* report) {
  switch (op.kind) {
    case OperatorKind::kSplitTable: {
      auto ti = before.TableOfNonKeyAttr(op.split_moved[0]);
      if (!ti.ok()) return true;  // surfaces as OPSET_NOT_APPLICABLE
      const PhysicalTable& table = before.tables()[*ti];
      if (!L.Reaches(table.anchor, op.split_moved_anchor)) {
        report->AddError(
            DiagCode::kPreserveSplitLossy, OpLocation(index),
            "split of table '" + table.name + "' is not lossless-join: table anchor '" +
                L.entity(table.anchor).name + "' does not reach moved-fragment anchor '" +
                L.entity(op.split_moved_anchor).name +
                "' (no shared key reference between the two sides)");
        return false;
      }
      break;
    }
    case OperatorKind::kCombineTable: {
      auto ai = before.TableOfNonKeyAttr(op.combine_left_rep);
      auto bi = before.TableOfNonKeyAttr(op.combine_right_rep);
      if (!ai.ok() || !bi.ok() || *ai == *bi) return true;
      EntityId a = before.tables()[*ai].anchor;
      EntityId b = before.tables()[*bi].anchor;
      if (a == b) break;
      EntityId parent, child;
      if (L.Reaches(a, b)) {
        child = a;
        parent = b;
      } else if (L.Reaches(b, a)) {
        child = b;
        parent = a;
      } else {
        break;  // unrelated anchors: ApplyOperator rejects, replay reports
      }
      report->AddWarning(
          DiagCode::kPreserveCombineCoverage, OpLocation(index),
          "combine denormalizes '" + L.entity(parent).name + "' into '" +
              L.entity(child).name + "' rows; '" + L.entity(parent).name +
              "' rows without any '" + L.entity(child).name +
              "' child are not representable — tuple preservation requires every '" +
              L.entity(parent).name + "' row to be covered");
      break;
    }
    case OperatorKind::kCreateTable:
      break;
  }
  return true;
}

/// Non-key attributes stored anywhere in `schema`.
std::set<AttrId> StoredNonKeyAttrs(const PhysicalSchema& schema) {
  const LogicalSchema& L = *schema.logical();
  std::set<AttrId> out;
  for (const PhysicalTable& t : schema.tables()) {
    for (AttrId a : t.attrs) {
      if (!L.attr(a).is_key) out.insert(a);
    }
  }
  return out;
}

/// Structural checks shared by every verification family. Returns false when
/// the input is too broken to continue (missing pointers, invalid schemas,
/// arity mismatches, dependency cycles).
bool CheckFoundations(const VerifyInput& input, DiagnosticReport* report) {
  if (input.source == nullptr || input.object == nullptr || input.opset == nullptr) {
    report->AddError(DiagCode::kOpsetArity, "",
                     "source, object, and operator set are all required");
    return false;
  }
  if (input.source->logical() == nullptr ||
      input.source->logical() != input.object->logical()) {
    report->AddError(DiagCode::kSchemaInvalid, "",
                     "source and object schemas do not share a logical schema");
    return false;
  }
  Status s = input.source->Validate();
  if (!s.ok()) {
    report->AddError(DiagCode::kSchemaInvalid, "source", s.message());
  }
  s = input.object->Validate();
  if (!s.ok()) {
    report->AddError(DiagCode::kSchemaInvalid, "object", s.message());
  }
  if (!report->ok()) return false;

  const OperatorSet& opset = *input.opset;
  if (opset.deps.size() != opset.ops.size()) {
    report->AddError(DiagCode::kOpsetArity, "",
                     "operator set has " + std::to_string(opset.ops.size()) + " ops but " +
                         std::to_string(opset.deps.size()) + " dependency lists");
    return false;
  }
  if (input.applied != nullptr && input.applied->size() != opset.ops.size()) {
    report->AddError(DiagCode::kOpsetArity, "",
                     "applied mask arity (" + std::to_string(input.applied->size()) +
                         ") does not match the operator set (" +
                         std::to_string(opset.ops.size()) + ")");
    return false;
  }
  bool deps_ok = true;
  for (size_t i = 0; i < opset.deps.size(); ++i) {
    for (int d : opset.deps[i]) {
      if (d < 0 || static_cast<size_t>(d) >= opset.ops.size()) {
        report->AddError(DiagCode::kOpsetArity, OpLocation(i),
                         "dependency index " + std::to_string(d) + " is out of range");
        deps_ok = false;
      } else if (static_cast<size_t>(d) == i) {
        report->AddError(DiagCode::kOpsetArity, OpLocation(i), "operator depends on itself");
        deps_ok = false;
      }
    }
  }
  if (!deps_ok) return false;
  if (!opset.TopologicalOrder().ok()) {
    report->AddError(DiagCode::kOpsetDepCycle, "",
                     "operator dependency graph contains a cycle");
    return false;
  }
  return true;
}

/// Candidate intermediate schemas at the current migration point: the
/// dependency-closed subsets of the remaining operators (exactly what LAA
/// enumerates) when 2^m fits the budget, else the topological prefixes.
/// Each candidate is returned as op-index list in topological order.
std::vector<std::vector<int>> CandidateSubsets(const OperatorSet& opset,
                                               const std::vector<bool>& applied,
                                               size_t max_exhaustive_ops) {
  std::vector<int> remaining;
  for (size_t i = 0; i < opset.size(); ++i) {
    if (!applied[i]) remaining.push_back(static_cast<int>(i));
  }
  std::vector<int> topo_remaining;
  auto topo = opset.TopologicalOrder();
  if (topo.ok()) {
    for (int i : *topo) {
      if (!applied[static_cast<size_t>(i)]) topo_remaining.push_back(i);
    }
  } else {
    topo_remaining = remaining;
  }
  std::vector<std::vector<int>> out;
  const size_t m = remaining.size();
  if (m <= max_exhaustive_ops && m < 63) {
    for (uint64_t mask = 0; mask < (1ull << m); ++mask) {
      std::vector<int> subset;
      for (size_t b = 0; b < m; ++b) {
        if (mask & (1ull << b)) subset.push_back(remaining[b]);
      }
      if (!opset.IsClosed(subset, applied)) continue;
      // Topological order within the subset.
      std::vector<int> ordered;
      for (int i : topo_remaining) {
        if (std::find(subset.begin(), subset.end(), i) != subset.end()) ordered.push_back(i);
      }
      out.push_back(std::move(ordered));
    }
  } else {
    out.emplace_back();  // the empty prefix: the current schema itself
    for (size_t k = 1; k <= topo_remaining.size(); ++k) {
      out.emplace_back(topo_remaining.begin(),
                       topo_remaining.begin() + static_cast<long>(k));
    }
  }
  return out;
}

}  // namespace

std::vector<AttrId> ReferencedAttrs(const LogicalQuery& query, const LogicalSchema& logical,
                                    DiagnosticReport* report) {
  std::vector<std::string> cols;
  for (const auto& item : query.select) {
    if (item.expr) item.expr->CollectColumns(&cols);
  }
  for (const auto& f : query.filters) f->CollectColumns(&cols);
  for (const auto& g : query.group_by) g->CollectColumns(&cols);
  std::set<AttrId> seen;
  std::vector<AttrId> out;
  for (const std::string& c : cols) {
    auto a = logical.AttrByName(c);
    if (!a.ok()) {
      if (report != nullptr) {
        report->AddError(DiagCode::kWorkloadUnanswerableObject, QueryLocation(query),
                         "references unknown attribute '" + c + "'");
      }
      continue;
    }
    if (seen.insert(*a).second) out.push_back(*a);
  }
  return out;
}

DiagnosticReport VerifyMigration(const VerifyInput& input, const VerifyOptions& options) {
  DiagnosticReport report;
  if (!CheckFoundations(input, &report)) return report;

  const OperatorSet& opset = *input.opset;
  const LogicalSchema& L = *input.source->logical();
  std::vector<bool> applied =
      input.applied != nullptr ? *input.applied : std::vector<bool>(opset.size(), false);

  // --- (a) well-formedness: per-operator references. ---
  std::vector<bool> replayable(opset.size(), true);
  for (size_t i = 0; i < opset.size(); ++i) {
    replayable[i] = CheckOperatorRefs(L, opset.ops[i], i, &report);
  }

  // --- (a)+(b): symbolic replay of the remaining operators, in topological
  // order, on a copy of the current schema. Each must apply exactly once.
  bool converged_check = true;
  PhysicalSchema replayed = *input.source;
  auto topo = opset.TopologicalOrder();  // cycle excluded by CheckFoundations
  for (int idx : *topo) {
    const size_t i = static_cast<size_t>(idx);
    if (applied[i]) continue;
    if (!replayable[i]) {
      converged_check = false;  // cannot assess convergence past a broken op
      break;
    }
    const MigrationOperator& op = opset.ops[i];
    bool clean = true;
    if (options.check_preservation) {
      clean = CheckOperatorPreservation(L, replayed, op, i, &report);
    }
    Status s = ApplyOperator(op, &replayed);
    if (!s.ok()) {
      if (clean) {
        report.AddError(DiagCode::kOpsetNotApplicable, OpLocation(i),
                        op.ToString(L) + " is not applicable at its point in the "
                        "dependency order: " + s.message());
      }
      converged_check = false;
      break;
    }
    // Exactly-once: a second application must be rejected.
    PhysicalSchema scratch = replayed;
    if (ApplyOperator(op, &scratch).ok()) {
      report.AddError(DiagCode::kOpsetReapply, OpLocation(i),
                      op.ToString(L) + " is applicable more than once — the operator set "
                      "does not identify its operand unambiguously");
    }
    if (options.check_preservation) {
      // No stored source attribute may vanish mid-replay.
      for (AttrId a : StoredNonKeyAttrs(*input.source)) {
        if (!replayed.TableOfNonKeyAttr(a).ok()) {
          report.AddError(DiagCode::kPreserveAttrLost, OpLocation(i),
                          "source attribute '" + L.attr(a).name +
                              "' is no longer derivable after " + op.ToString(L));
        }
      }
    }
  }
  if (converged_check && !replayed.EquivalentTo(*input.object)) {
    report.AddError(DiagCode::kOpsetNoConvergence, "",
                    "applying every remaining operator does not reproduce the object "
                    "schema; replay ended at:\n" + replayed.ToString() + "object is:\n" +
                        input.object->ToString());
  }

  // --- (b) preservation at the target: every source attribute must have a
  // placement in the object schema (else the migration forgets data). ---
  if (options.check_preservation) {
    for (AttrId a : StoredNonKeyAttrs(*input.source)) {
      if (!input.object->TableOfNonKeyAttr(a).ok()) {
        report.AddError(DiagCode::kPreserveAttrLost, "object",
                        "attribute '" + L.attr(a).name +
                            "' is stored in the source schema but has no placement in the "
                            "object schema — the migration would lose it");
      }
    }
  }

  // --- (c) workload lint. ---
  if (options.check_workload && input.queries != nullptr) {
    const std::vector<WorkloadQuery>& queries = *input.queries;
    if (input.phase_freqs != nullptr) {
      for (size_t p = 0; p < input.phase_freqs->size(); ++p) {
        if ((*input.phase_freqs)[p].size() != queries.size()) {
          report.AddError(DiagCode::kWorkloadArity, "phase " + std::to_string(p),
                          "frequency vector arity (" +
                              std::to_string((*input.phase_freqs)[p].size()) +
                              ") does not match the workload (" +
                              std::to_string(queries.size()) + " queries)");
        }
      }
    }
    // Answerability on the fixed endpoints.
    std::vector<bool> object_ok(queries.size(), false);
    for (size_t q = 0; q < queries.size(); ++q) {
      const LogicalQuery& query = queries[q].query;
      (void)ReferencedAttrs(query, L, &report);  // unknown-name errors
      auto on_object = RewriteQuery(query, *input.object);
      object_ok[q] = on_object.ok();
      if (!on_object.ok()) {
        report.AddError(DiagCode::kWorkloadUnanswerableObject, QueryLocation(query),
                        "not answerable on the object schema: " +
                            on_object.status().message());
      }
      if (queries[q].is_old && options.check_source_answerability) {
        auto on_source = RewriteQuery(query, *input.source);
        if (!on_source.ok()) {
          report.AddError(DiagCode::kWorkloadUnanswerableSource, QueryLocation(query),
                          "old-version query not answerable on the current schema: " +
                              on_source.status().message());
        }
      }
    }
    // Answerability on every candidate intermediate schema. Failures are
    // deduplicated per query: one diagnostic summarising how many candidates
    // reject it, with one example subset.
    struct Failure {
      size_t candidates = 0;
      std::string example;
      bool expected_deferral = true;
    };
    std::map<size_t, Failure> failures;
    size_t num_candidates = 0;
    for (const std::vector<int>& subset :
         CandidateSubsets(opset, applied, options.max_exhaustive_ops)) {
      PhysicalSchema schema = *input.source;
      bool apply_ok = true;
      for (int i : subset) {
        if (!replayable[static_cast<size_t>(i)] ||
            !ApplyOperator(opset.ops[static_cast<size_t>(i)], &schema).ok()) {
          apply_ok = false;
          break;
        }
      }
      if (!apply_ok) continue;  // already diagnosed by the replay pass
      ++num_candidates;
      for (size_t q = 0; q < queries.size(); ++q) {
        if (!object_ok[q]) continue;  // already an error above
        const LogicalQuery& query = queries[q].query;
        if (RewriteQuery(query, schema).ok()) continue;
        Failure& f = failures[q];
        ++f.candidates;
        if (f.example.empty()) f.example = SubsetToString(subset);
        // Expected deferral: the only missing attributes are new ones whose
        // CreateTable is simply not in this subset yet.
        bool expected = false;
        for (AttrId a : ReferencedAttrs(query, L, nullptr)) {
          if (L.attr(a).is_new && !schema.TableOfNonKeyAttr(a).ok()) {
            expected = true;
            break;
          }
        }
        if (!expected) f.expected_deferral = false;
      }
    }
    for (const auto& [q, f] : failures) {
      const LogicalQuery& query = queries[q].query;
      std::string msg = "not answerable on " + std::to_string(f.candidates) + " of " +
                        std::to_string(num_candidates) +
                        " candidate intermediate schemas (e.g. after ops " + f.example + ")";
      if (f.expected_deferral) {
        if (options.note_expected_deferrals) {
          report.AddNote(DiagCode::kWorkloadUnanswerableIntermediate, QueryLocation(query),
                         msg + " — expected: it needs a new attribute whose CreateTable is "
                         "deferred there; such candidates are priced via the fallback schema");
        }
      } else {
        report.AddWarning(DiagCode::kWorkloadUnanswerableIntermediate, QueryLocation(query),
                          msg + " — planners must reject these candidates or price the "
                          "query out-of-band");
      }
    }
  }
  return report;
}

DiagnosticReport VerifyContext(const MigrationContext& ctx, const VerifyOptions& options) {
  VerifyInput input;
  input.source = ctx.current;
  input.object = ctx.object;
  input.opset = ctx.opset;
  input.applied = &ctx.applied;
  input.queries = ctx.queries;
  input.phase_freqs = ctx.phase_freqs;
  return VerifyMigration(input, options);
}

}  // namespace pse

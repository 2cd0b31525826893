#include "analysis/writability.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "analysis/interaction.h"
#include "core/operators.h"

namespace pse {

const char* DmlKindName(DmlKind kind) {
  switch (kind) {
    case DmlKind::kSelect:
      return "select";
    case DmlKind::kInsert:
      return "insert";
    case DmlKind::kUpdate:
      return "update";
    case DmlKind::kDelete:
      return "delete";
  }
  return "?";
}

const char* WritabilityName(Writability level) {
  switch (level) {
    case Writability::kSafe:
      return "safe";
    case Writability::kNeedsPropagation:
      return "needs-propagation";
    case Writability::kUnservable:
      return "unservable";
  }
  return "?";
}

const char* LensClassName(LensClass lens) {
  switch (lens) {
    case LensClass::kInvertible:
      return "invertible";
    case LensClass::kRecoverableWithProvenance:
      return "recoverable-with-provenance";
    case LensClass::kLossy:
      return "lossy";
  }
  return "?";
}

namespace {

constexpr std::array<DmlKind, 3> kWriteKinds = {DmlKind::kInsert, DmlKind::kUpdate,
                                                DmlKind::kDelete};

VersionTable MakeVersionTable(const PhysicalTable& table, const LogicalSchema& L) {
  VersionTable out;
  out.name = table.name;
  out.anchor = table.anchor;
  for (AttrId a : table.attrs) {
    if (!L.attr(a).is_key) out.attrs.push_back(a);
  }
  return out;
}

/// Classifies `op`'s lenses against the schema it is applied to. The operand
/// anchors decide everything: a split/combine within one entity is a pure
/// vertical repartition (invertible), while crossing entities collapses or
/// duplicates rows (provenance territory).
OperatorLens ClassifyLens(int op_index, const MigrationOperator& op, const PhysicalSchema& before,
                          const LogicalSchema& L) {
  OperatorLens lens;
  lens.op = op_index;
  switch (op.kind) {
    case OperatorKind::kCreateTable: {
      lens.forward = LensClass::kInvertible;
      lens.backward = LensClass::kLossy;
      lens.detail = "new attributes of '" + L.entity(op.create_entity).name +
                    "' have no storage before the create: old-version data is untouched "
                    "(forward invertible), but a new-version write of them cannot be "
                    "represented on the pre-create schema";
      break;
    }
    case OperatorKind::kSplitTable: {
      auto ti = before.TableOfNonKeyAttr(op.split_moved[0]);
      EntityId host = ti.ok() ? before.tables()[*ti].anchor : op.split_moved_anchor;
      if (op.split_moved_anchor == host) {
        lens.forward = LensClass::kInvertible;
        lens.backward = LensClass::kInvertible;
        lens.detail = "vertical partition within '" + L.entity(host).name +
                      "': both fragments keep one row per key, writes map 1:1 either way";
      } else {
        lens.forward = LensClass::kRecoverableWithProvenance;
        lens.backward = LensClass::kInvertible;
        lens.detail = "de-duplicates '" + L.entity(op.split_moved_anchor).name +
                      "' attributes out of a fragment anchored at '" + L.entity(host).name +
                      "': old-version inserts carried them per row and must create-or-merge "
                      "the shared row (provenance); new-version writes fan back losslessly";
      }
      break;
    }
    case OperatorKind::kCombineTable: {
      auto li = before.TableOfNonKeyAttr(op.combine_left_rep);
      auto ri = before.TableOfNonKeyAttr(op.combine_right_rep);
      EntityId la = li.ok() ? before.tables()[*li].anchor : kInvalidId;
      EntityId ra = ri.ok() ? before.tables()[*ri].anchor : kInvalidId;
      if (la != kInvalidId && la == ra) {
        lens.forward = LensClass::kInvertible;
        lens.backward = LensClass::kInvertible;
        lens.detail = "re-joins two fragments of '" + L.entity(la).name +
                      "' on their shared key: writes map 1:1 either way";
      } else {
        lens.forward = LensClass::kRecoverableWithProvenance;
        lens.backward = LensClass::kRecoverableWithProvenance;
        std::string left = la != kInvalidId ? L.entity(la).name : "?";
        std::string right = ra != kInvalidId ? L.entity(ra).name : "?";
        lens.detail = "cross-entity combine of '" + left + "' x '" + right +
                      "': the join duplicates one side's rows (and drops uncovered ones), "
                      "so translating writes across it needs row provenance in both "
                      "directions (duplicate on the way in, de-duplicate on the way out)";
      }
      break;
    }
  }
  return lens;
}

/// Non-key attributes of physical table `idx` of `schema`, sorted by AttrId.
std::vector<AttrId> NonKeyAttrsOf(const PhysicalSchema& schema, size_t idx) {
  const LogicalSchema& L = *schema.logical();
  std::vector<AttrId> out;
  for (AttrId a : schema.tables()[idx].attrs) {
    if (!L.attr(a).is_key) out.push_back(a);
  }
  return out;
}

}  // namespace

std::vector<VersionTable> VersionTablesOf(const PhysicalSchema& schema) {
  std::vector<VersionTable> out;
  out.reserve(schema.tables().size());
  for (const PhysicalTable& t : schema.tables()) {
    out.push_back(MakeVersionTable(t, *schema.logical()));
  }
  return out;
}

std::array<WritabilityCell, kNumDmlKinds> ClassifyVersionTable(const VersionTable& table,
                                                               const PhysicalSchema& schema) {
  const LogicalSchema& L = *schema.logical();
  std::array<WritabilityCell, kNumDmlKinds> cells;
  if (table.attrs.empty()) {
    for (auto& c : cells) c.detail = "key-only fragment";
    return cells;
  }

  std::vector<AttrId> missing;
  std::set<size_t> placements;
  for (AttrId a : table.attrs) {
    auto ti = schema.TableOfNonKeyAttr(a);
    if (ti.ok()) {
      placements.insert(*ti);
    } else {
      missing.push_back(a);
    }
  }

  // "Direct" = a single placement table that is exactly this version table:
  // same anchor, same non-key attribute set. Everything a statement touches
  // is then one exclusive fragment.
  bool direct = false;
  const PhysicalTable* p = nullptr;
  if (missing.empty() && placements.size() == 1) {
    size_t pi = *placements.begin();
    p = &schema.tables()[pi];
    direct = p->anchor == table.anchor && NonKeyAttrsOf(schema, pi) == table.attrs;
  }

  std::string missing_detail;
  if (!missing.empty()) {
    missing_detail = "attribute '" + L.attr(missing.front()).name + "'";
    if (missing.size() > 1) {
      missing_detail += " (+" + std::to_string(missing.size() - 1) + " more)";
    }
    missing_detail += " has no storage on this schema";
  }

  // Why a servable-but-indirect layout needs write propagation.
  std::string indirect_detail;
  if (missing.empty() && !direct) {
    if (placements.size() > 1) {
      indirect_detail =
          "row fans out across " + std::to_string(placements.size()) + " fragments";
    } else if (p != nullptr && p->anchor == table.anchor) {
      indirect_detail = "fragment '" + p->name +
                        "' also carries other attributes: the write must merge into the "
                        "wider row";
    } else if (p != nullptr && L.Reaches(p->anchor, table.anchor)) {
      indirect_detail = "attributes are denormalized into '" + p->name + "' (anchored at '" +
                        L.entity(p->anchor).name +
                        "'): one logical row spans many stored rows";
    } else if (p != nullptr) {
      indirect_detail = "attributes are de-duplicated into parent fragment '" + p->name +
                        "': the write must create-or-merge the shared row";
    }
  }

  auto classify_read_or_write = [&](WritabilityCell* cell) {
    if (!missing.empty()) {
      cell->level = Writability::kUnservable;
      cell->detail = missing_detail;
    } else if (direct) {
      cell->level = Writability::kSafe;
    } else {
      cell->level = Writability::kNeedsPropagation;
      cell->detail = indirect_detail;
    }
  };
  classify_read_or_write(&cells[static_cast<size_t>(DmlKind::kSelect)]);
  classify_read_or_write(&cells[static_cast<size_t>(DmlKind::kInsert)]);
  classify_read_or_write(&cells[static_cast<size_t>(DmlKind::kUpdate)]);

  // DELETE never becomes unservable: attributes with no storage yet have
  // nothing to remove. It stays a plain single-fragment delete only on a
  // direct layout (or when nothing is stored at all).
  WritabilityCell& del = cells[static_cast<size_t>(DmlKind::kDelete)];
  if (placements.empty()) {
    del.level = Writability::kSafe;
    del.detail = "no fragment stored on this schema";
  } else if (direct) {
    del.level = Writability::kSafe;
  } else {
    del.level = Writability::kNeedsPropagation;
    del.detail = !indirect_detail.empty()
                     ? indirect_detail
                     : "delete must clear " + std::to_string(placements.size()) +
                           " fragment(s) without dropping shared rows";
  }
  return cells;
}

namespace {

/// One operator's place in the replayed trajectory.
struct OpSchedule {
  size_t step = 0;   ///< 0 = before step 0; k = applied at step k; tail = last+1
  size_t order = 0;  ///< global application sequence number
  std::set<AttrId> delta;  ///< attributes whose placement the op changed
  bool scheduled = false;  ///< false = pending beyond the analyzed trajectory
};

/// Provenance rule: the old version blames the *last applied* operator
/// touching the table's attributes (its layout drifted away from the old
/// schema step by step); the new version blames the *first still-pending*
/// one (that operator is what the layout is still waiting for). Falls back
/// to the other side, then -1.
int AttributeProvenance(const std::vector<int>& touching, const std::vector<OpSchedule>& sched,
                        size_t step, bool old_version) {
  int last_applied = -1, first_pending = -1;
  size_t best_applied = 0, best_pending = std::numeric_limits<size_t>::max();
  for (int op : touching) {
    const OpSchedule& s = sched[static_cast<size_t>(op)];
    if (s.step <= step) {
      if (last_applied < 0 || s.order >= best_applied) {
        best_applied = s.order;
        last_applied = op;
      }
    } else {
      if (first_pending < 0 || s.order < best_pending) {
        best_pending = s.order;
        first_pending = op;
      }
    }
  }
  if (old_version) return last_applied >= 0 ? last_applied : first_pending;
  return first_pending >= 0 ? first_pending : last_applied;
}

}  // namespace

Result<WritabilityAnalysis> AnalyzeWritability(const WritabilityInput& input,
                                               DiagnosticReport* report) {
  if (input.old_schema == nullptr || input.new_schema == nullptr || input.opset == nullptr) {
    return Status::InvalidArgument(
        "writability analysis needs the old schema, the new schema, and an operator set");
  }
  if (input.old_schema->logical() == nullptr ||
      input.old_schema->logical() != input.new_schema->logical()) {
    return Status::InvalidArgument("old and new schemas must share one logical schema");
  }
  const LogicalSchema& L = *input.old_schema->logical();
  const OperatorSet& opset = *input.opset;
  const size_t m = opset.size();
  std::vector<bool> applied = input.applied;
  if (applied.empty()) applied.assign(m, false);
  if (applied.size() != m) {
    return Status::InvalidArgument("applied mask arity does not match the operator set");
  }
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());

  WritabilityAnalysis out;
  out.old_tables = VersionTablesOf(*input.old_schema);
  out.new_tables = VersionTablesOf(*input.new_schema);
  out.lenses.resize(m);

  // Resolve the trajectory: the given steps, or one per remaining operator
  // in topological order.
  std::vector<bool> seen = applied;
  if (input.trajectory.empty()) {
    for (int i : topo) {
      if (!applied[static_cast<size_t>(i)]) out.trajectory.push_back({i});
    }
  } else {
    out.trajectory = input.trajectory;
    for (const std::vector<int>& group : out.trajectory) {
      for (int i : group) {
        if (i < 0 || static_cast<size_t>(i) >= m) {
          return Status::InvalidArgument("trajectory references operator " + std::to_string(i) +
                                         " outside the operator set");
        }
        if (seen[static_cast<size_t>(i)]) {
          return Status::InvalidArgument("trajectory schedules operator " + std::to_string(i) +
                                         " twice (or it is already applied)");
        }
        seen[static_cast<size_t>(i)] = true;
      }
    }
  }
  const size_t num_steps = out.trajectory.size();

  // Full symbolic replay: pre-applied operators first, then each trajectory
  // step (members in topological order, so callers may pass groups in any
  // order), then the still-pending tail. Every operator gets its lens (at
  // its actual before-schema) and its placement delta; scheduled ones also
  // get a step index for provenance attribution.
  std::vector<OpSchedule> sched(m);
  std::vector<PhysicalSchema> schemas;
  schemas.reserve(num_steps + 1);
  PhysicalSchema state = *input.old_schema;
  size_t order = 0;
  std::vector<bool> done(m, false);
  auto replay_one = [&](int i, size_t step, bool scheduled) -> Status {
    const MigrationOperator& op = opset.ops[static_cast<size_t>(i)];
    for (int d : opset.deps[static_cast<size_t>(i)]) {
      if (!done[static_cast<size_t>(d)]) {
        return Status::InvalidArgument(
            "trajectory is not dependency-closed: operator " + std::to_string(i) +
            " runs before its prerequisite " + std::to_string(d));
      }
    }
    out.lenses[static_cast<size_t>(i)] = ClassifyLens(i, op, state, L);
    PhysicalSchema next = state;
    Status s = ApplyOperator(op, &next);
    if (!s.ok()) {
      return Status::InvalidArgument("operator " + std::to_string(i) +
                                     " is not applicable during the writability replay (" +
                                     s.message() + ") — verify the migration first");
    }
    OpSchedule& entry = sched[static_cast<size_t>(i)];
    entry.step = step;
    entry.order = order++;
    entry.delta = SchemaDeltaAttrs(state, next);
    entry.scheduled = scheduled;
    done[static_cast<size_t>(i)] = true;
    state = std::move(next);
    return Status::OK();
  };
  for (int i : topo) {
    if (applied[static_cast<size_t>(i)]) PSE_RETURN_NOT_OK(replay_one(i, 0, true));
  }
  schemas.push_back(state);
  for (size_t k = 0; k < num_steps; ++k) {
    std::vector<bool> in_group(m, false);
    for (int i : out.trajectory[k]) in_group[static_cast<size_t>(i)] = true;
    for (int i : topo) {
      if (in_group[static_cast<size_t>(i)]) PSE_RETURN_NOT_OK(replay_one(i, k + 1, true));
    }
    schemas.push_back(state);
  }
  for (int i : topo) {
    if (!done[static_cast<size_t>(i)]) {
      PSE_RETURN_NOT_OK(replay_one(i, num_steps + 1, false));
    }
  }

  // Which operators touch which version table (by placement delta) — the
  // provenance candidates.
  auto touching_ops = [&](const VersionTable& t) {
    std::vector<int> ops;
    for (size_t i = 0; i < m; ++i) {
      for (AttrId a : t.attrs) {
        if (sched[i].delta.count(a)) {
          ops.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    return ops;
  };
  std::vector<std::vector<int>> old_touching, new_touching;
  old_touching.reserve(out.old_tables.size());
  for (const VersionTable& t : out.old_tables) old_touching.push_back(touching_ops(t));
  new_touching.reserve(out.new_tables.size());
  for (const VersionTable& t : out.new_tables) new_touching.push_back(touching_ops(t));

  // The matrices, one per intermediate schema.
  out.steps.resize(num_steps + 1);
  for (size_t s = 0; s <= num_steps; ++s) {
    StepWritability& step = out.steps[s];
    step.step = s;
    auto fill = [&](const std::vector<VersionTable>& tables,
                    const std::vector<std::vector<int>>& touching, bool old_version,
                    bool live, VersionMatrix* matrix) {
      matrix->cells.resize(tables.size());
      for (size_t t = 0; t < tables.size(); ++t) {
        matrix->cells[t] = ClassifyVersionTable(tables[t], schemas[s]);
        for (WritabilityCell& cell : matrix->cells[t]) {
          if (cell.level == Writability::kSafe) continue;
          cell.provenance_op = AttributeProvenance(touching[t], sched, s, old_version);
          if (live && cell.level == Writability::kUnservable) ++out.unservable_cells;
        }
      }
    };
    fill(out.old_tables, old_touching, /*old_version=*/true, input.old_live,
         &step.old_version);
    fill(out.new_tables, new_touching, /*old_version=*/false, input.new_live,
         &step.new_version);
  }

  if (report == nullptr) return out;

  // -- WRITE_* diagnostics, in deterministic order: per-operator lens
  // findings first (ascending index), then per-(version, table) findings. --
  for (size_t i = 0; i < m; ++i) {
    const OperatorLens& lens = out.lenses[i];
    const MigrationOperator& op = opset.ops[i];
    std::string loc = "op#" + std::to_string(i);
    if (op.kind == OperatorKind::kCombineTable &&
        lens.forward == LensClass::kRecoverableWithProvenance) {
      report->AddWarning(DiagCode::kWriteLossyCombine, loc,
                         op.ToString(L) + ": " + lens.detail);
    }
    if (op.kind == OperatorKind::kSplitTable &&
        lens.forward == LensClass::kRecoverableWithProvenance) {
      report->AddWarning(DiagCode::kWriteSplitRoutingAmbiguous, loc,
                         op.ToString(L) + ": " + lens.detail +
                             " — routing of old-version INSERTs is ambiguous without it");
    }
  }

  auto table_findings = [&](const std::vector<VersionTable>& tables, bool old_version,
                            bool live, const char* version_name) {
    for (size_t t = 0; t < tables.size(); ++t) {
      std::string loc = std::string(version_name) + " table '" + tables[t].name + "'";
      // Steps where some write kind is unservable, and the operator blamed.
      size_t first_bad = 0, last_bad = 0, bad_steps = 0;
      int blamed = -1;
      bool provenance_needed = false;
      int provenance_op = -1;
      for (size_t s = 0; s <= num_steps; ++s) {
        const VersionMatrix& matrix =
            old_version ? out.steps[s].old_version : out.steps[s].new_version;
        bool bad = false;
        for (DmlKind kind : kWriteKinds) {
          const WritabilityCell& cell = matrix.cells[t][static_cast<size_t>(kind)];
          if (cell.level == Writability::kUnservable) {
            bad = true;
            if (cell.provenance_op >= 0) blamed = cell.provenance_op;
          } else if (cell.level == Writability::kNeedsPropagation &&
                     cell.provenance_op >= 0) {
            const OperatorLens& lens = out.lenses[static_cast<size_t>(cell.provenance_op)];
            LensClass relevant = old_version ? lens.forward : lens.backward;
            if (relevant == LensClass::kRecoverableWithProvenance) {
              provenance_needed = true;
              provenance_op = cell.provenance_op;
            }
          }
        }
        if (bad) {
          if (bad_steps == 0) first_bad = s;
          last_bad = s;
          ++bad_steps;
        }
      }
      if (live && bad_steps > 0) {
        std::string window = bad_steps == 1 ? "step " + std::to_string(first_bad)
                                            : "steps " + std::to_string(first_bad) + ".." +
                                                  std::to_string(last_bad);
        std::string cause =
            blamed >= 0 ? " until op#" + std::to_string(blamed) + " publishes" : "";
        report->AddWarning(DiagCode::kWriteUnservableWindow, loc,
                           "cannot accept writes on " + window + " of the trajectory" +
                               cause + " — a live " + version_name +
                               "-version session would see its DML fail");
      }
      if (provenance_needed) {
        report->AddNote(DiagCode::kWriteProvenanceRequired, loc,
                        "writes are servable but must consult row provenance across op#" +
                            std::to_string(provenance_op) +
                            " (" + LensClassName(LensClass::kRecoverableWithProvenance) +
                            " lens) to stay lossless");
      }
    }
  };
  table_findings(out.old_tables, /*old_version=*/true, input.old_live, "old");
  table_findings(out.new_tables, /*old_version=*/false, input.new_live, "new");
  return out;
}

std::string WritabilityAnalysis::ToString(const OperatorSet& opset,
                                          const LogicalSchema& logical) const {
  std::string out = "write-safety analysis: " + std::to_string(steps.size()) +
                    " intermediate schema(s), old version " +
                    std::to_string(old_tables.size()) + " table(s), new version " +
                    std::to_string(new_tables.size()) + " table(s), " +
                    std::to_string(unservable_cells) + " unservable cell(s)\n";
  out += "operator lenses:\n";
  for (const OperatorLens& lens : lenses) {
    if (lens.op < 0) continue;
    out += "  [" + std::to_string(lens.op) + "] " +
           opset.ops[static_cast<size_t>(lens.op)].ToString(logical) +
           "  forward=" + LensClassName(lens.forward) +
           " backward=" + LensClassName(lens.backward) + "\n";
  }
  auto cell_str = [](const WritabilityCell& cell) {
    std::string s = WritabilityName(cell.level);
    if (cell.provenance_op >= 0 && cell.level != Writability::kSafe) {
      s += "(op#" + std::to_string(cell.provenance_op) + ")";
    }
    return s;
  };
  for (const StepWritability& step : steps) {
    out += "step " + std::to_string(step.step);
    if (step.step == 0) {
      out += " (starting schema)";
    } else if (step.step - 1 < trajectory.size()) {
      out += " (after";
      for (int op : trajectory[step.step - 1]) out += " op#" + std::to_string(op);
      out += ")";
    }
    out += ":\n";
    auto rows = [&](const std::vector<VersionTable>& tables, const VersionMatrix& matrix,
                    const char* version) {
      for (size_t t = 0; t < tables.size(); ++t) {
        out += "  ";
        out += version;
        out += " " + tables[t].name + ":";
        for (size_t k = 0; k < kNumDmlKinds; ++k) {
          out += " ";
          out += DmlKindName(static_cast<DmlKind>(k));
          out += "=" + cell_str(matrix.cells[t][k]);
        }
        out += "\n";
      }
    };
    rows(old_tables, step.old_version, "old");
    rows(new_tables, step.new_version, "new");
  }
  return out;
}

}  // namespace pse

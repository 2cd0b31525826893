#include "analysis/interaction.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "analysis/verifier.h"
#include "core/operators.h"

namespace pse {

namespace {

/// Clusters above this size get closed_subsets = 0 (counting is itself a
/// 2^size enumeration; anything larger is un-enumerable for LAA anyway).
constexpr size_t kMaxCountableCluster = 24;

/// Collects the non-key attrs + anchor of table `ti` into a footprint.
void AddTable(const LogicalSchema& L, const PhysicalTable& table, OperatorFootprint* fp) {
  fp->anchors.insert(table.anchor);
  for (AttrId a : table.attrs) {
    if (!L.attr(a).is_key) fp->attrs.insert(a);
  }
}

/// The operand tables of `op` as they stand in `schema` (ignoring tables the
/// schema does not store — e.g. a combine rep not yet isolated).
void AddOperandTables(const LogicalSchema& L, const PhysicalSchema& schema,
                      const MigrationOperator& op, OperatorFootprint* fp) {
  switch (op.kind) {
    case OperatorKind::kCreateTable:
      // Creates only add a fresh fragment; they read key values from a
      // carrier but never change an existing table's contents.
      break;
    case OperatorKind::kSplitTable: {
      auto ti = schema.TableOfNonKeyAttr(op.split_moved[0]);
      if (ti.ok()) AddTable(L, schema.tables()[*ti], fp);
      break;
    }
    case OperatorKind::kCombineTable: {
      for (AttrId rep : {op.combine_left_rep, op.combine_right_rep}) {
        auto ti = schema.TableOfNonKeyAttr(rep);
        if (ti.ok()) AddTable(L, schema.tables()[*ti], fp);
      }
      break;
    }
  }
}

/// Tables of `a` that have no structurally identical counterpart in `b`.
void AddUnmatchedTables(const LogicalSchema& L, const PhysicalSchema& a,
                        const PhysicalSchema& b, OperatorFootprint* fp) {
  std::map<std::pair<EntityId, std::vector<AttrId>>, int> other;
  for (const PhysicalTable& t : b.tables()) ++other[{t.anchor, t.attrs}];
  for (const PhysicalTable& t : a.tables()) {
    auto it = other.find({t.anchor, t.attrs});
    if (it != other.end() && it->second > 0) {
      --it->second;
    } else {
      AddTable(L, t, fp);
    }
  }
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Unite(int a, int b) { parent[static_cast<size_t>(Find(a))] = Find(b); }
};

/// Dependency-closed subsets of one cluster by bitmask enumeration.
/// `depmask[i]` holds the within-cluster prerequisite bits of member i.
uint64_t CountClosedSubsets(const std::vector<uint64_t>& depmask) {
  const size_t k = depmask.size();
  uint64_t count = 0;
  for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
    bool closed = true;
    for (size_t b = 0; b < k && closed; ++b) {
      if ((mask >> b) & 1) closed = (depmask[b] & ~mask) == 0;
    }
    if (closed) ++count;
  }
  return count;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

}  // namespace

std::set<AttrId> SchemaDeltaAttrs(const PhysicalSchema& before, const PhysicalSchema& after) {
  const LogicalSchema& L = *before.logical();
  OperatorFootprint fp;
  AddUnmatchedTables(L, before, after, &fp);
  AddUnmatchedTables(L, after, before, &fp);
  return std::move(fp.attrs);
}

std::set<AttrId> QuerySupportAttrs(const LogicalQuery& query, const LogicalSchema& logical) {
  std::set<AttrId> out;
  for (AttrId a : ReferencedAttrs(query, logical, nullptr)) {
    if (logical.attr(a).is_key) continue;  // keys ride along with their tables
    out.insert(a);
    EntityId e = logical.attr(a).entity;
    if (e == query.anchor) continue;
    // Parent fragment: the rewriter joins anchor -> e along the FK chain and
    // resolves each chain FK's own placement, so those attributes are part
    // of the query's support. (The denormalized direction — a table anchored
    // deeper that stores `a` — carries its chain FKs in the same table by
    // the physical-schema invariants, so `a` itself already covers it.)
    auto path = logical.FkPath(query.anchor, e);
    if (path.ok()) out.insert(path->begin(), path->end());
  }
  return out;
}

Result<InteractionAnalysis> AnalyzeInteractions(const OperatorSet& opset,
                                                const PhysicalSchema& source,
                                                const std::vector<bool>& applied,
                                                const std::vector<WorkloadQuery>* queries) {
  if (source.logical() == nullptr) {
    return Status::InvalidArgument("source schema has no logical schema");
  }
  if (applied.size() != opset.size()) {
    return Status::InvalidArgument("applied mask arity does not match the operator set");
  }
  const LogicalSchema& L = *source.logical();
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, opset.TopologicalOrder());

  InteractionAnalysis out;
  std::vector<int> position(opset.size(), -1);
  for (int idx : topo) {
    if (!applied[static_cast<size_t>(idx)]) {
      position[static_cast<size_t>(idx)] = static_cast<int>(out.remaining.size());
      out.remaining.push_back(idx);
    }
  }
  const size_t m = out.remaining.size();
  out.footprints.resize(m);
  out.cluster_of.assign(opset.size(), -1);

  // --- (a) footprints via symbolic replay (+ source-state operands). ---
  PhysicalSchema state = source;
  for (int idx : topo) {
    const size_t i = static_cast<size_t>(idx);
    if (applied[i]) continue;
    OperatorFootprint& fp = out.footprints[static_cast<size_t>(position[i])];
    const MigrationOperator& op = opset.ops[i];
    AddOperandTables(L, source, op, &fp);  // earliest reachable operand state
    AddOperandTables(L, state, op, &fp);   // replay-point operand state
    PhysicalSchema next = state;
    Status s = ApplyOperator(op, &next);
    if (!s.ok()) {
      return Status::InvalidArgument("operator " + std::to_string(i) +
                                     " is not applicable during the analysis replay (" +
                                     s.message() + ") — verify the migration first");
    }
    AddUnmatchedTables(L, next, state, &fp);  // result tables
    AddUnmatchedTables(L, state, next, &fp);  // consumed tables
    state = std::move(next);
  }

  // --- (b) interference graph as a union-find. ---
  UnionFind uf(m == 0 ? 1 : m);
  std::map<AttrId, std::vector<int>> attr_positions;
  for (size_t p = 0; p < m; ++p) {
    for (AttrId a : out.footprints[p].attrs) attr_positions[a].push_back(static_cast<int>(p));
  }
  for (auto& [attr, positions] : attr_positions) {
    for (size_t k = 1; k < positions.size(); ++k) uf.Unite(positions[0], positions[k]);
  }
  for (size_t p = 0; p < m; ++p) {
    for (int d : opset.deps[static_cast<size_t>(out.remaining[p])]) {
      if (!applied[static_cast<size_t>(d)]) {
        uf.Unite(static_cast<int>(p), position[static_cast<size_t>(d)]);
      }
    }
  }

  // --- (d) per-query relevance sets; queries couple the operators they
  // touch into one cluster (their cost term must not span two). ---
  std::vector<std::vector<int>> query_positions;
  if (queries != nullptr) {
    out.query_ops.resize(queries->size());
    query_positions.resize(queries->size());
    for (size_t q = 0; q < queries->size(); ++q) {
      std::set<AttrId> support = QuerySupportAttrs((*queries)[q].query, L);
      std::set<int> touched;
      if (support.empty() && m > 0) {
        // Nothing to anchor the analysis on (e.g. key-only select):
        // conservatively couple the query to every remaining operator.
        for (size_t p = 0; p < m; ++p) touched.insert(static_cast<int>(p));
      } else {
        for (AttrId a : support) {
          auto it = attr_positions.find(a);
          if (it == attr_positions.end()) continue;
          touched.insert(it->second.begin(), it->second.end());
        }
      }
      query_positions[q].assign(touched.begin(), touched.end());
      for (int p : query_positions[q]) {
        out.query_ops[q].push_back(out.remaining[static_cast<size_t>(p)]);
        uf.Unite(query_positions[q][0], p);
      }
      std::sort(out.query_ops[q].begin(), out.query_ops[q].end());
      if (touched.empty()) out.untouched_queries.push_back(q);
    }
  }

  // --- (c) connected components -> clusters, in topological member order. ---
  std::map<int, int> root_to_cluster;
  for (size_t p = 0; p < m; ++p) {
    int root = uf.Find(static_cast<int>(p));
    auto [it, inserted] = root_to_cluster.emplace(root, static_cast<int>(out.clusters.size()));
    if (inserted) out.clusters.emplace_back();
    int c = it->second;
    out.clusters[static_cast<size_t>(c)].ops.push_back(out.remaining[p]);
    out.cluster_of[static_cast<size_t>(out.remaining[p])] = c;
  }
  if (queries != nullptr) {
    for (size_t q = 0; q < queries->size(); ++q) {
      if (query_positions[q].empty()) continue;
      int c = out.cluster_of[static_cast<size_t>(
          out.remaining[static_cast<size_t>(query_positions[q][0])])];
      out.clusters[static_cast<size_t>(c)].queries.push_back(q);
    }
  }
  for (InteractionCluster& cluster : out.clusters) {
    if (cluster.ops.size() <= kMaxCountableCluster) {
      std::map<int, size_t> member_bit;
      for (size_t b = 0; b < cluster.ops.size(); ++b) member_bit[cluster.ops[b]] = b;
      std::vector<uint64_t> depmask(cluster.ops.size(), 0);
      for (size_t b = 0; b < cluster.ops.size(); ++b) {
        for (int d : opset.deps[static_cast<size_t>(cluster.ops[b])]) {
          auto it = member_bit.find(d);
          if (it != member_bit.end()) depmask[b] |= 1ull << it->second;
        }
      }
      cluster.closed_subsets = CountClosedSubsets(depmask);
      out.closed_subsets_total *= static_cast<double>(cluster.closed_subsets);
    } else {
      cluster.closed_subsets = 0;  // not countable; bound by 2^size
      out.closed_subsets_total *= std::pow(2.0, static_cast<double>(cluster.ops.size()));
    }
  }
  return out;
}

std::string InteractionAnalysis::ToString(const OperatorSet& opset,
                                          const LogicalSchema& logical,
                                          const std::vector<WorkloadQuery>* queries) const {
  std::string out = "operator-interaction analysis: " + std::to_string(remaining.size()) +
                    " remaining operator(s), " + std::to_string(clusters.size()) +
                    " interference cluster(s)\n";
  double cluster_sum = 0;
  for (const InteractionCluster& c : clusters) cluster_sum += static_cast<double>(c.closed_subsets);
  char line[160];
  std::snprintf(line, sizeof(line),
                "plan space: %.0f dependency-closed subsets brute force; %.0f cluster-wise "
                "(%.2f%%)\n",
                closed_subsets_total, cluster_sum,
                closed_subsets_total > 0 ? 100.0 * cluster_sum / closed_subsets_total : 0.0);
  out += line;
  auto query_name = [&](size_t q) {
    if (queries != nullptr && q < queries->size() && !(*queries)[q].query.name.empty()) {
      return (*queries)[q].query.name;
    }
    std::string fallback = "q";
    fallback += std::to_string(q);
    return fallback;
  };
  for (size_t c = 0; c < clusters.size(); ++c) {
    const InteractionCluster& cluster = clusters[c];
    out += "cluster " + std::to_string(c) + ": " + std::to_string(cluster.ops.size()) +
           " op(s), " +
           (cluster.closed_subsets > 0 ? std::to_string(cluster.closed_subsets)
                                       : std::string(">2^24")) +
           " closed subset(s)";
    if (!cluster.queries.empty()) {
      std::vector<std::string> names;
      names.reserve(cluster.queries.size());
      for (size_t q : cluster.queries) names.push_back(query_name(q));
      out += "; queries: " + JoinNames(names);
    }
    out += "\n";
    for (int op : cluster.ops) {
      int pos = -1;
      for (size_t p = 0; p < remaining.size(); ++p) {
        if (remaining[p] == op) pos = static_cast<int>(p);
      }
      out += "  [" + std::to_string(op) + "] " +
             opset.ops[static_cast<size_t>(op)].ToString(logical) + "  footprint:";
      if (pos >= 0) {
        for (AttrId a : footprints[static_cast<size_t>(pos)].attrs) {
          out += " " + logical.attr(a).name;
        }
      }
      out += "\n";
    }
  }
  if (!untouched_queries.empty()) {
    std::vector<std::string> names;
    names.reserve(untouched_queries.size());
    for (size_t q : untouched_queries) names.push_back(query_name(q));
    out += "queries untouched by any remaining operator (cost constant): " +
           JoinNames(names) + "\n";
  }
  return out;
}

void ReportCostIrrelevantOps(const InteractionAnalysis& analysis, const OperatorSet& opset,
                             const LogicalSchema& logical, DiagnosticReport* report) {
  if (analysis.query_ops.empty()) return;  // no workload: irrelevance is undefined
  std::set<int> touched;
  for (const std::vector<int>& ops : analysis.query_ops) {
    touched.insert(ops.begin(), ops.end());
  }
  for (int op : analysis.remaining) {
    if (touched.count(op)) continue;
    report->AddNote(DiagCode::kAnalysisCostIrrelevantOp, "op#" + std::to_string(op),
                    opset.ops[static_cast<size_t>(op)].ToString(logical) +
                        " touches no attribute any workload query reads, so it cannot "
                        "change C(Schema) in any phase — schedule it purely for data-"
                        "movement convenience (e.g. defer to the completion step)");
  }
}

}  // namespace pse

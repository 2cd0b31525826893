#include "core/migration_planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "analysis/verifier.h"
#include "common/stopwatch.h"
#include "core/virtual_catalog.h"
#include "engine/cost_model.h"

namespace pse {

namespace {

/// Weight of one page of estimated data movement against one page of query
/// I/O in GAA's objective (GaaOptions::include_migration_cost).
constexpr double kMigrationIoWeight = 1.0;

/// Cheap static gate run before any candidate costing: operator-set
/// well-formedness only (arity, cycles, dangling references, one clean
/// symbolic replay of the remaining operators, convergence to the object
/// schema). Preservation subset enumeration and workload lint are the
/// callers' concern (VerifyMigration with full options).
Status GateContext(const MigrationContext& ctx) {
  VerifyOptions gate;
  gate.check_preservation = false;
  gate.check_workload = false;
  return VerifyContext(ctx, gate).ToStatus();
}

/// Every planning entry point's guard on a migration point: phases are
/// 0-based indexes into ctx.phase_freqs.
Status CheckPhase(const MigrationContext& ctx, size_t phase) {
  if (phase < ctx.num_phases()) return Status::OK();
  return Status::InvalidArgument("phase " + std::to_string(phase) +
                                 " out of range: the schedule has " +
                                 std::to_string(ctx.num_phases()) + " phases");
}

}  // namespace

std::vector<int> MigrationContext::RemainingOps() const {
  std::vector<int> out;
  for (size_t i = 0; i < opset->size(); ++i) {
    if (!applied[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

namespace {

/// Winner of one closed-subset sweep (brute force over all remaining ops, or
/// one cluster's powerset).
struct SweepOutcome {
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_subset;
  size_t evaluated = 0;
};

/// Enumerates the dependency-closed subsets of `ops` in ascending-mask order
/// and costs each as it is enumerated, applying each subset's operators in
/// `topo`, the operator set's dependency order. On equal cost the later
/// (larger, more progressed) subset wins.
Result<SweepOutcome> SweepClosedSubsets(const MigrationContext& ctx, const std::vector<int>& ops,
                                        const std::vector<int>& topo, const LogicalStats& stats,
                                        const std::vector<double>& freqs,
                                        const CostOptions& cost_options,
                                        CachedCostEstimator* estimator) {
  const size_t k = ops.size();
  SweepOutcome out;
  for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
    std::vector<int> subset;
    for (size_t b = 0; b < k; ++b) {
      if (mask & (1ull << b)) subset.push_back(ops[b]);
    }
    if (!ctx.opset->IsClosed(subset, ctx.applied)) continue;
    PhysicalSchema schema = *ctx.current;
    std::vector<bool> in_subset(ctx.opset->size(), false);
    for (int i : subset) in_subset[static_cast<size_t>(i)] = true;
    for (int i : topo) {
      if (in_subset[static_cast<size_t>(i)]) {
        PSE_RETURN_NOT_OK(ApplyOperator(ctx.opset->ops[static_cast<size_t>(i)], &schema));
      }
    }
    PSE_ASSIGN_OR_RETURN(double cost, estimator->WorkloadCost(schema, stats, freqs, cost_options));
    ++out.evaluated;
    // Paper's Algorithm 1 uses Min >= TempCost: on ties, the later subset
    // wins, pushing the migration forward.
    if (cost <= out.best_cost) {
      out.best_cost = cost;
      out.best_subset = std::move(subset);
    }
  }
  return out;
}

}  // namespace

Result<double> EstimateOperatorIo(const MigrationOperator& op, const PhysicalSchema& before,
                                  const LogicalStats& stats) {
  VirtualSchemaCatalog catalog(&before, &stats);
  const LogicalSchema& L = *before.logical();
  auto table_pages = [&](size_t table_idx) -> double {
    const std::string& name = before.tables()[table_idx].name;
    auto st = catalog.GetStats(name);
    if (!st.ok()) return 1.0;
    return CostModel::TablePages(**st);
  };
  // Pages of a hypothetical table anchored at `anchor` with `attrs`.
  auto fragment_pages = [&](EntityId anchor, const std::vector<AttrId>& attrs) -> double {
    double width = 12.0;  // key + overhead
    for (AttrId a : attrs) {
      const LogicalAttribute& attr = L.attr(a);
      width += attr.type == TypeId::kVarchar ? attr.avg_width + 4.0 : 8.0;
    }
    double rows =
        anchor < stats.entity_rows.size() ? static_cast<double>(stats.entity_rows[anchor]) : 0;
    return std::max(1.0, std::ceil(rows * width / (8192.0 * 0.85)));
  };
  switch (op.kind) {
    case OperatorKind::kCreateTable: {
      // Read key values from some carrier + write the new fragment.
      double write = fragment_pages(op.create_entity, op.create_attrs);
      return write * 2.0;
    }
    case OperatorKind::kSplitTable: {
      auto ti = before.TableOfNonKeyAttr(op.split_moved[0]);
      if (!ti.ok()) return 0.0;
      double src = table_pages(*ti);
      // Read the source once, write both halves (~ same total bytes).
      return 2.0 * src;
    }
    case OperatorKind::kCombineTable: {
      auto ai = before.TableOfNonKeyAttr(op.combine_left_rep);
      auto bi = before.TableOfNonKeyAttr(op.combine_right_rep);
      if (!ai.ok() || !bi.ok()) return 0.0;
      double a = table_pages(*ai), b = table_pages(*bi);
      // Read both, write the (denormalized, possibly larger) result.
      return a + b + std::max(a, b) * 1.5;
    }
  }
  return 0.0;
}

Result<LaaResult> SelectOpsLaa(const MigrationContext& ctx, size_t current_phase,
                               size_t observed_phase, size_t max_ops,
                               const AnalysisOptions& analysis) {
  Stopwatch wall;
  std::vector<int> remaining = ctx.RemainingOps();
  const size_t m = remaining.size();
  PSE_RETURN_NOT_OK(CheckPhase(ctx, current_phase));
  PSE_RETURN_NOT_OK(CheckPhase(ctx, observed_phase));
  PSE_RETURN_NOT_OK(GateContext(ctx));
  // One topological sort serves every sweep and the winner's ordering.
  PSE_ASSIGN_OR_RETURN(std::vector<int> topo, ctx.opset->TopologicalOrder());
  const std::vector<double>& freqs = (*ctx.phase_freqs)[observed_phase];
  const LogicalStats& stats = ctx.StatsAt(observed_phase);
  CostOptions cost_options;
  cost_options.fallback_schema = ctx.object;

  CachedCostEstimator estimator(ctx.queries, ctx.current->logical(), analysis.cost_cache);
  const CostCacheStats cache_before =
      analysis.cost_cache != nullptr ? analysis.cost_cache->Snapshot() : CostCacheStats{};

  LaaResult result;
  std::vector<int> best_subset;

  if (!analysis.prune_laa) {
    // Classic exhaustive sweep (Algorithm 1 verbatim).
    if (m > max_ops) {
      return Status::ResourceExhausted(
          "LAA is exhaustive (2^m); m=" + std::to_string(m) + " exceeds the guard of " +
          std::to_string(max_ops) + " — use GAA or enable interaction-analysis pruning");
    }
    PSE_ASSIGN_OR_RETURN(SweepOutcome sweep, SweepClosedSubsets(ctx, remaining, topo, stats,
                                                                freqs, cost_options, &estimator));
    result.schemas_evaluated = sweep.evaluated;
    result.best_cost = sweep.best_cost;
    best_subset = std::move(sweep.best_subset);
    result.schemas_exhaustive = static_cast<double>(result.schemas_evaluated);
  } else {
    // Cluster-wise enumeration: exact because C(Schema) decomposes over
    // queries and every query's cost term is confined to one interference
    // cluster (see interaction.h and DESIGN.md §12), so the argmin over the
    // product space factorizes into independent per-cluster argmins.
    PSE_ASSIGN_OR_RETURN(InteractionAnalysis ia, AnalyzeInteractions(*ctx.opset, *ctx.current,
                                                                     ctx.applied, ctx.queries));
    for (const InteractionCluster& cluster : ia.clusters) {
      if (cluster.ops.size() > max_ops || cluster.ops.size() > 63) {
        return Status::ResourceExhausted(
            "LAA cluster-wise enumeration: largest interference cluster has " +
            std::to_string(cluster.ops.size()) + " operators, exceeding the guard of " +
            std::to_string(max_ops) + " — use GAA");
      }
    }
    result.schemas_exhaustive = ia.closed_subsets_total;
    // Queries no remaining operator touches cost the same on every candidate
    // schema: estimate them once, on the current schema.
    std::vector<double> residual(freqs.size(), 0.0);
    for (size_t q : ia.untouched_queries) {
      if (q < residual.size()) residual[q] = freqs[q];
    }
    PSE_ASSIGN_OR_RETURN(double total,
                         estimator.WorkloadCost(*ctx.current, stats, residual, cost_options));
    ++result.schemas_evaluated;
    for (const InteractionCluster& cluster : ia.clusters) {
      std::vector<double> masked(freqs.size(), 0.0);
      for (size_t q : cluster.queries) {
        if (q < masked.size()) masked[q] = freqs[q];
      }
      LaaClusterInfo info;
      info.ops = cluster.ops;
      // Dependencies never cross clusters, so closure is cluster-local.
      PSE_ASSIGN_OR_RETURN(SweepOutcome sweep,
                           SweepClosedSubsets(ctx, cluster.ops, topo, stats, masked,
                                              cost_options, &estimator));
      info.schemas_evaluated = sweep.evaluated;
      info.best_cost = sweep.best_cost;
      info.chosen = sweep.best_subset;
      result.schemas_evaluated += info.schemas_evaluated;
      total += info.best_cost;
      best_subset.insert(best_subset.end(), sweep.best_subset.begin(), sweep.best_subset.end());
      result.clusters.push_back(std::move(info));
    }
    result.best_cost = total;
  }

  // Order the winner topologically for application.
  std::vector<bool> in_subset(ctx.opset->size(), false);
  for (int i : best_subset) in_subset[static_cast<size_t>(i)] = true;
  for (int i : topo) {
    if (in_subset[static_cast<size_t>(i)]) result.ops_to_apply.push_back(i);
  }
  if (analysis.cost_cache != nullptr) {
    result.cache_stats = analysis.cost_cache->Snapshot() - cache_before;
  }
  result.wall_ms = wall.ElapsedSeconds() * 1000.0;
  return result;
}

namespace {

/// C(Schema) of `schema` at global phase `phase`, pricing unservable queries
/// on the object schema times `unservable_penalty`: through `estimator` when
/// there is one, else EstimateWorkloadCost.
Result<double> PricePhase(const MigrationContext& ctx, const PhysicalSchema& schema,
                          size_t phase, double unservable_penalty,
                          CachedCostEstimator* estimator) {
  CostOptions cost_options;
  cost_options.fallback_schema = ctx.object;
  cost_options.unservable_penalty = unservable_penalty;
  const std::vector<double>& freqs = (*ctx.phase_freqs)[phase];
  const LogicalStats& stats = ctx.StatsAt(phase);
  if (estimator != nullptr) return estimator->WorkloadCost(schema, stats, freqs, cost_options);
  return EstimateWorkloadCost(schema, stats, *ctx.queries, freqs, cost_options);
}

/// The first gene of `assignment` that no plan can have, as an index into
/// `remaining_ops`, or -1 when there is none. A gene lies in
/// [0, phases_left] and is no earlier than the gene of each prerequisite in
/// `remaining_ops`; prerequisites outside it were applied earlier and
/// impose nothing.
int FirstInvalidGene(const OperatorSet& opset, const std::vector<int>& remaining_ops,
                     const std::vector<int>& assignment, int phases_left) {
  std::vector<int> offset_of(opset.size(), -1);
  for (size_t i = 0; i < remaining_ops.size(); ++i) {
    if (assignment[i] < 0 || assignment[i] > phases_left) return static_cast<int>(i);
    offset_of[static_cast<size_t>(remaining_ops[i])] = assignment[i];
  }
  for (size_t i = 0; i < remaining_ops.size(); ++i) {
    for (int d : opset.deps[static_cast<size_t>(remaining_ops[i])]) {
      if (assignment[i] < offset_of[static_cast<size_t>(d)]) return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

PhaseSchemaMemo::PhaseSchemaMemo(const MigrationContext& ctx, double unservable_penalty)
    : ctx_(&ctx),
      unservable_penalty_(unservable_penalty),
      topo_(ctx.opset->TopologicalOrder()),
      current_(*ctx.current, ctx.num_phases()) {}

Result<const std::vector<int>*> PhaseSchemaMemo::TopologicalOrder() const {
  PSE_RETURN_NOT_OK(topo_.status());
  return &*topo_;
}

Result<PhaseSchemaMemo::Entry*> PhaseSchemaMemo::Apply(const Entry& before, int op,
                                                       std::vector<bool>* applied) {
  (*applied)[static_cast<size_t>(op)] = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(*applied);
    if (it != entries_.end()) return &it->second;
  }
  // Build outside the lock. Two threads racing on one set both build it;
  // the first insert wins and both return that entry.
  PhysicalSchema after = before.schema();
  PSE_RETURN_NOT_OK(ApplyOperator(ctx_->opset->ops[static_cast<size_t>(op)], &after));
  std::lock_guard<std::mutex> lock(mu_);
  return &entries_.try_emplace(*applied, Entry(std::move(after), ctx_->num_phases()))
              .first->second;
}

Result<double> PhaseSchemaMemo::PhaseCost(Entry* entry, size_t phase,
                                          CachedCostEstimator* estimator) {
  PSE_RETURN_NOT_OK(CheckPhase(*ctx_, phase));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->costs_[phase].has_value()) return *entry->costs_[phase];
  }
  // Price outside the lock, like Apply: racing threads price one pair to the
  // same bits, and the first store wins.
  PSE_ASSIGN_OR_RETURN(double cost,
                       PricePhase(*ctx_, entry->schema_, phase, unservable_penalty_, estimator));
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<double>& slot = entry->costs_[phase];
  if (!slot.has_value()) slot = cost;
  return *slot;
}

size_t PhaseSchemaMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Result<double> EvaluateAssignment(const MigrationContext& ctx, size_t current_phase,
                                  const std::vector<int>& remaining_ops,
                                  const std::vector<int>& assignment,
                                  const GaaOptions& options, CachedCostEstimator* estimator,
                                  PhaseSchemaMemo* memo) {
  PSE_RETURN_NOT_OK(CheckPhase(ctx, current_phase));
  const size_t phases_left = ctx.num_phases() - current_phase;
  if (assignment.size() != remaining_ops.size()) {
    return Status::InvalidArgument("assignment arity mismatch");
  }
  const int bad = FirstInvalidGene(*ctx.opset, remaining_ops, assignment,
                                   static_cast<int>(phases_left));
  if (bad >= 0) {
    const size_t i = static_cast<size_t>(bad);
    return Status::InvalidArgument(
        "assignment gives operator " + std::to_string(remaining_ops[i]) + " gene " +
        std::to_string(assignment[i]) + ": a gene lies in [0, " + std::to_string(phases_left) +
        "] and no earlier than its remaining prerequisites' genes");
  }
  if (memo != nullptr && (&memo->context() != &ctx ||
                          memo->unservable_penalty() != options.unservable_penalty)) {
    return Status::InvalidArgument(
        "the phase-schema memo was built for another context or unservable penalty");
  }
  // A memo sorts the operators once per planning call.
  std::vector<int> unmemoized_topo;
  const std::vector<int>* topo = &unmemoized_topo;
  if (memo != nullptr) {
    PSE_ASSIGN_OR_RETURN(topo, memo->TopologicalOrder());
  } else {
    PSE_ASSIGN_OR_RETURN(unmemoized_topo, ctx.opset->TopologicalOrder());
  }
  std::vector<int> offset_of(ctx.opset->size(), -1);
  for (size_t i = 0; i < remaining_ops.size(); ++i) {
    offset_of[static_cast<size_t>(remaining_ops[i])] = assignment[i];
  }

  // `schema` is the schema after every operator applied so far: without a
  // memo, `local` accumulates them; with one, it is the schema of `entry`,
  // the memo's entry of the applied set.
  PhysicalSchema local;
  const PhysicalSchema* schema = ctx.current;
  PhaseSchemaMemo::Entry* entry = nullptr;
  std::vector<bool> applied;
  if (memo != nullptr) {
    entry = memo->current();
    schema = &entry->schema();
    applied.assign(ctx.opset->size(), false);
  }
  auto apply = [&](int i) -> Status {
    if (memo != nullptr) {
      PSE_ASSIGN_OR_RETURN(entry, memo->Apply(*entry, i, &applied));
      schema = &entry->schema();
      return Status::OK();
    }
    if (schema != &local) local = *schema;
    PSE_RETURN_NOT_OK(ApplyOperator(ctx.opset->ops[static_cast<size_t>(i)], &local));
    schema = &local;
    return Status::OK();
  };
  double total = 0;
  // Offsets run 0..phases_left; the value phases_left means "defer to the
  // completion step after the last phase" (old users are gone by then, so
  // deferred operators cost no measured query time). This matches the
  // paper's gene range of (0, c).
  for (size_t off = 0; off < phases_left; ++off) {
    const size_t phase = current_phase + off;
    // Apply the ops assigned to this offset, in topological order.
    for (int i : *topo) {
      if (offset_of[static_cast<size_t>(i)] == static_cast<int>(off)) {
        if (options.include_migration_cost) {
          PSE_ASSIGN_OR_RETURN(double io,
                               EstimateOperatorIo(ctx.opset->ops[static_cast<size_t>(i)],
                                                  *schema, ctx.StatsAt(phase)));
          total += kMigrationIoWeight * io;
        }
        PSE_RETURN_NOT_OK(apply(i));
      }
    }
    double cost = 0;
    if (memo != nullptr) {
      PSE_ASSIGN_OR_RETURN(cost, memo->PhaseCost(entry, phase, estimator));
    } else {
      PSE_ASSIGN_OR_RETURN(cost,
                           PricePhase(ctx, *schema, phase, options.unservable_penalty, estimator));
    }
    total += cost;
  }
  // Deferred operators (offset == phases_left) run in the completion step;
  // only their data movement can cost anything.
  if (options.include_migration_cost) {
    for (int i : *topo) {
      if (offset_of[static_cast<size_t>(i)] == static_cast<int>(phases_left)) {
        PSE_ASSIGN_OR_RETURN(
            double io, EstimateOperatorIo(ctx.opset->ops[static_cast<size_t>(i)], *schema,
                                          ctx.StatsAt(ctx.num_phases() - 1)));
        total += kMigrationIoWeight * io;
        PSE_RETURN_NOT_OK(apply(i));
      }
    }
  }
  return total;
}

namespace {

/// Builds the dependency-clamping repair: offset(dependent) >= offset(prereq)
/// among remaining ops; prerequisites already applied impose nothing.
std::function<void(Chromosome*, Rng*)> MakeRepair(const MigrationContext& ctx,
                                                  const std::vector<int>& remaining_ops) {
  // Position of each op in the chromosome.
  std::vector<int> pos(ctx.opset->size(), -1);
  for (size_t i = 0; i < remaining_ops.size(); ++i) {
    pos[static_cast<size_t>(remaining_ops[i])] = static_cast<int>(i);
  }
  // Pre-compute (dependent_pos, prereq_pos) pairs in topological order so a
  // single forward pass propagates chains.
  std::vector<std::pair<int, int>> edges;
  auto topo = ctx.opset->TopologicalOrder();
  if (topo.ok()) {
    for (int i : *topo) {
      if (pos[static_cast<size_t>(i)] < 0) continue;
      for (int d : ctx.opset->deps[static_cast<size_t>(i)]) {
        if (pos[static_cast<size_t>(d)] >= 0) {
          edges.emplace_back(pos[static_cast<size_t>(i)], pos[static_cast<size_t>(d)]);
        }
      }
    }
  }
  return [edges](Chromosome* c, Rng*) {
    for (const auto& [dep, pre] : edges) {
      if ((*c)[static_cast<size_t>(dep)] < (*c)[static_cast<size_t>(pre)]) {
        (*c)[static_cast<size_t>(dep)] = (*c)[static_cast<size_t>(pre)];
      }
    }
  };
}

}  // namespace

Result<GaaResult> PlanGaa(const MigrationContext& ctx, size_t current_phase,
                          const GaaOptions& options) {
  PSE_RETURN_NOT_OK(CheckPhase(ctx, current_phase));
  PSE_RETURN_NOT_OK(GateContext(ctx));
  GaaResult result;
  result.remaining_ops = ctx.RemainingOps();
  const size_t m = result.remaining_ops.size();
  const int phases_left = static_cast<int>(ctx.num_phases() - current_phase);

  if (m == 0) {
    result.best_cost = 0;
    return result;
  }
  CachedCostEstimator estimator(ctx.queries, ctx.current->logical(), options.analysis.cost_cache);
  PhaseSchemaMemo memo(ctx, options.unservable_penalty);
  const CostCacheStats cache_before = options.analysis.cost_cache != nullptr
                                          ? options.analysis.cost_cache->Snapshot()
                                          : CostCacheStats{};

  // The GA minimizes cost; fitness = -cost. Repaired chromosomes recur
  // often, so evaluations are memoized. Evaluation errors (should not
  // happen for repaired chromosomes) surface as -inf fitness.
  Status eval_error;
  std::map<Chromosome, double> fitness_cache;
  GaProblem problem;
  problem.random_chromosome = [m, phases_left](Rng* rng) {
    Chromosome c(m);
    // Range [0, phases_left]: the top value defers past the last phase.
    for (auto& g : c) g = static_cast<int>(rng->UniformInt(0, phases_left));
    return c;
  };
  problem.repair = MakeRepair(ctx, result.remaining_ops);
  if (options.use_order_crossover) {
    // The paper's Fig 6 recombination is defined for permutations; on
    // assignment strings (which carry duplicates) it can change the child's
    // length, so fall back to two-point when that happens. This preserves
    // the scheme's spirit for the ablation while staying well-defined.
    problem.crossover = [](const Chromosome& a, const Chromosome& b, Rng* rng) {
      Chromosome child = OrderCrossover(a, b, rng);
      if (child.size() != a.size()) child = TwoPointCrossover(a, b, rng);
      return child;
    };
  }
  if (options.point_mutation_only) {
    problem.mutate = [phases_left](Chromosome* c, Rng* rng) {
      PointMutation(c, phases_left, rng);
    };
  } else {
    problem.mutate = [phases_left](Chromosome* c, Rng* rng) {
      if (rng->Bernoulli(0.5)) {
        SegmentReversalMutation(c, rng);
      } else {
        PointMutation(c, phases_left, rng);
      }
    };
  }
  problem.fitness = [&](const Chromosome& c) -> double {
    auto cached = fitness_cache.find(c);
    if (cached != fitness_cache.end()) return cached->second;
    Result<double> cost = EvaluateAssignment(ctx, current_phase, result.remaining_ops, c, options,
                                             &estimator, &memo);
    double fitness = -std::numeric_limits<double>::infinity();
    if (cost.ok()) {
      fitness = -*cost;
    } else if (eval_error.ok()) {
      eval_error = cost.status();
    }
    fitness_cache.emplace(c, fitness);
    return fitness;
  };

  Rng rng(options.seed + current_phase * 7919);
  GaResult ga = RunGa(problem, options.ga, &rng);
  if (!eval_error.ok() && std::isinf(ga.best_fitness)) return eval_error;
  result.assignment = ga.best;
  result.best_cost = -ga.best_fitness;
  result.evaluations = ga.evaluations;
  if (options.analysis.cost_cache != nullptr) {
    result.cache_stats = options.analysis.cost_cache->Snapshot() - cache_before;
  }
  return result;
}

std::vector<int> GaaResult::ApplyNow() const {
  std::vector<int> out;
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] == 0) out.push_back(remaining_ops[i]);
  }
  return out;
}

Result<GaaResult> PlanExhaustiveGlobal(const MigrationContext& ctx, size_t current_phase,
                                       const GaaOptions& options, size_t max_ops) {
  PSE_RETURN_NOT_OK(CheckPhase(ctx, current_phase));
  PSE_RETURN_NOT_OK(GateContext(ctx));
  GaaResult result;
  result.remaining_ops = ctx.RemainingOps();
  const size_t m = result.remaining_ops.size();
  const int phases_left = static_cast<int>(ctx.num_phases() - current_phase);
  if (m > max_ops) {
    return Status::ResourceExhausted("exhaustive global search over c^m assignments; m=" +
                                     std::to_string(m) + " too large");
  }
  if (m == 0) return result;
  CachedCostEstimator estimator(ctx.queries, ctx.current->logical(), options.analysis.cost_cache);
  PhaseSchemaMemo memo(ctx, options.unservable_penalty);
  std::vector<int> assignment(m, 0);
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> best_assignment = assignment;
  while (true) {
    // Only dependency-valid assignments are scored.
    if (FirstInvalidGene(*ctx.opset, result.remaining_ops, assignment, phases_left) < 0) {
      PSE_ASSIGN_OR_RETURN(double cost,
                           EvaluateAssignment(ctx, current_phase, result.remaining_ops,
                                              assignment, options, &estimator, &memo));
      ++result.evaluations;
      if (cost < best) {
        best = cost;
        best_assignment = assignment;
      }
    }
    // Odometer increment (values 0..phases_left inclusive).
    size_t pos = 0;
    while (pos < m) {
      if (++assignment[pos] <= phases_left) break;
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == m) break;
  }
  result.assignment = best_assignment;
  result.best_cost = best;
  return result;
}

}  // namespace pse

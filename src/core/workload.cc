#include "core/workload.h"

#include <algorithm>

#include "core/rewriter.h"
#include "core/virtual_catalog.h"
#include "engine/cost_model.h"
#include "engine/planner.h"

namespace pse {

Result<double> EstimateQueryCost(const LogicalQuery& query, const PhysicalSchema& schema,
                                 const LogicalStats& stats) {
  PSE_ASSIGN_OR_RETURN(BoundQuery bound, RewriteQuery(query, schema));
  VirtualSchemaCatalog catalog(&schema, &stats);
  PSE_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(bound, catalog));
  CostModel model(&catalog);
  PSE_ASSIGN_OR_RETURN(CostEstimate est, model.Estimate(*plan));
  return est.io_pages;
}

Result<double> EstimateWorkloadCost(const PhysicalSchema& schema, const LogicalStats& stats,
                                    const std::vector<WorkloadQuery>& queries,
                                    const std::vector<double>& freqs,
                                    const CostOptions& options) {
  if (freqs.size() != queries.size()) {
    return Status::InvalidArgument("frequency vector does not match query count");
  }
  if (std::none_of(freqs.begin(), freqs.end(), [](double f) { return f > 0; })) {
    return 0.0;  // silent phase: nothing to estimate
  }
  double total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (freqs[i] <= 0) continue;
    Result<double> cost = EstimateQueryCost(queries[i].query, schema, stats);
    if (!cost.ok()) {
      if (cost.status().IsBindError() && options.fallback_schema != nullptr) {
        PSE_ASSIGN_OR_RETURN(
            double fb, EstimateQueryCost(queries[i].query, *options.fallback_schema, stats));
        total += options.unservable_penalty * fb * freqs[i];
        continue;
      }
      return cost.status();
    }
    total += *cost * freqs[i];
  }
  return total;
}

Result<double> CostValue(const PhysicalSchema& candidate, const PhysicalSchema& object,
                         const LogicalStats& stats, const std::vector<WorkloadQuery>& queries,
                         const std::vector<double>& freqs) {
  if (freqs.size() != queries.size()) {
    return Status::InvalidArgument("frequency vector does not match query count");
  }
  if (std::none_of(freqs.begin(), freqs.end(), [](double f) { return f > 0; })) {
    // Zero-frequency phase: both schemas trivially cost 0, so skip building
    // the fallback options and the two workload sweeps entirely.
    return 0.0;
  }
  CostOptions options;
  options.fallback_schema = &object;
  PSE_ASSIGN_OR_RETURN(double object_cost,
                       EstimateWorkloadCost(object, stats, queries, freqs, options));
  PSE_ASSIGN_OR_RETURN(double candidate_cost,
                       EstimateWorkloadCost(candidate, stats, queries, freqs, options));
  return object_cost - candidate_cost;
}

}  // namespace pse

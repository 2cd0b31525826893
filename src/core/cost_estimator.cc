#include "core/cost_estimator.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>

#include "analysis/interaction.h"

namespace pse {

CachedCostEstimator::CachedCostEstimator(const std::vector<WorkloadQuery>* queries,
                                         const LogicalSchema* logical, QueryCostCache* cache)
    : queries_(queries), logical_(logical), cache_(cache) {
  if (cache_ == nullptr || queries_ == nullptr || logical == nullptr) {
    cache_ = nullptr;  // incomplete inputs: degrade to the uncached path
    return;
  }
  support_.reserve(queries_->size());
  query_ids_.reserve(queries_->size());
  for (const WorkloadQuery& wq : *queries_) {
    std::set<AttrId> support = QuerySupportAttrs(wq.query, *logical);
    any_empty_support_ = any_empty_support_ || support.empty();
    support_.emplace_back(support.begin(), support.end());
    // The query's identity is its content, so two workloads sharing one
    // cache share entries exactly for the queries they have in common.
    query_ids_.push_back(cache_->InternQuery(wq.query.name + "|" + wq.query.ToString(*logical)));
  }
}

CachedCostEstimator::SchemaIds CachedCostEstimator::InternSchema(
    const PhysicalSchema& schema) const {
  SchemaIds ids;
  ids.table_of_attr.assign(logical_->num_attributes(), QueryCostCache::kAbsent);
  std::vector<uint64_t> layout;
  for (const PhysicalTable& table : schema.tables()) {
    layout.assign(1, table.anchor);
    layout.insert(layout.end(), table.attrs.begin(), table.attrs.end());
    const Id id = cache_->InternLayout(layout);
    for (AttrId a : table.attrs) {
      // First table wins, like PhysicalSchema::TableOfNonKeyAttr.
      if (!logical_->attr(a).is_key && ids.table_of_attr[a] == QueryCostCache::kAbsent) {
        ids.table_of_attr[a] = id;
      }
    }
    if (any_empty_support_) ids.all_tables.push_back(id);
  }
  std::sort(ids.all_tables.begin(), ids.all_tables.end());
  return ids;
}

CachedCostEstimator::Id CachedCostEstimator::StatsId(const LogicalStats& stats) {
  std::lock_guard<std::mutex> lock(stats_ids_mu_);
  for (const auto& [ptr, id] : stats_ids_) {
    if (ptr == &stats) return id;
  }
  // Every field, with explicit presence words, so equal ids mean equal
  // snapshots.
  std::vector<uint64_t> content;
  content.reserve(2 + stats.entity_rows.size() + 6 * stats.attrs.size());
  content.push_back(stats.entity_rows.size());
  content.insert(content.end(), stats.entity_rows.begin(), stats.entity_rows.end());
  content.push_back(stats.attrs.size());
  for (const LogicalAttrStats& a : stats.attrs) {
    content.push_back(a.num_distinct);
    content.push_back(a.min.has_value());
    content.push_back(static_cast<uint64_t>(a.min.value_or(0)));
    content.push_back(a.max.has_value());
    content.push_back(static_cast<uint64_t>(a.max.value_or(0)));
    content.push_back(std::bit_cast<uint64_t>(a.null_fraction));
  }
  const Id id = cache_->InternStats(content);
  stats_ids_.emplace_back(&stats, id);
  return id;
}

Result<double> CachedCostEstimator::QueryCost(size_t q, const PhysicalSchema& schema,
                                              const LogicalStats& stats) {
  if (queries_ == nullptr || q >= queries_->size()) {
    return Status::InvalidArgument("query index out of range");
  }
  if (cache_ == nullptr) return EstimateQueryCost((*queries_)[q].query, schema, stats);
  std::vector<Id> key;
  return CachedQueryCost(q, schema, stats, InternSchema(schema), StatsId(stats), &key);
}

Result<double> CachedCostEstimator::CachedQueryCost(size_t q, const PhysicalSchema& schema,
                                                    const LogicalStats& stats,
                                                    const SchemaIds& schema_ids, Id stats_id,
                                                    std::vector<Id>* key_buffer) {
  const LogicalQuery& query = (*queries_)[q].query;
  std::vector<Id>& key = *key_buffer;
  key.assign({query_ids_[q], stats_id});
  if (support_[q].empty()) {
    key.insert(key.end(), schema_ids.all_tables.begin(), schema_ids.all_tables.end());
  } else {
    for (AttrId a : support_[q]) key.push_back(schema_ids.table_of_attr[a]);
  }
  if (std::optional<QueryCostCache::Outcome> hit = cache_->Lookup(key)) {
    if (hit->bind_error) {
      return Status::BindError("query '" + query.name +
                               "' does not bind on this layout (cached)");
    }
    return hit->cost;
  }
  Result<double> cost = EstimateQueryCost(query, schema, stats);
  if (cost.ok()) {
    cache_->Insert(key, {*cost, /*bind_error=*/false});
    return cost;
  }
  if (cost.status().IsBindError()) {
    // Unservability is a property of the layout too — memoize it so the
    // fallback path stops re-deriving the same bind failure.
    cache_->Insert(key, {0.0, /*bind_error=*/true});
  }
  return cost;  // non-bind errors are not cached (should not recur)
}

Result<double> CachedCostEstimator::WorkloadCost(const PhysicalSchema& schema,
                                                 const LogicalStats& stats,
                                                 const std::vector<double>& freqs,
                                                 const CostOptions& options) {
  if (queries_ == nullptr) return Status::InvalidArgument("estimator has no workload");
  if (freqs.size() != queries_->size()) {
    return Status::InvalidArgument("frequency vector does not match query count");
  }
  if (std::none_of(freqs.begin(), freqs.end(), [](double f) { return f > 0; })) {
    return 0.0;  // silent phase: nothing to estimate (mirrors the free function)
  }
  if (cache_ == nullptr) {
    return EstimateWorkloadCost(schema, stats, *queries_, freqs, options);
  }
  const SchemaIds schema_ids = InternSchema(schema);
  const Id stats_id = StatsId(stats);
  std::optional<SchemaIds> fallback_ids;  // interned on the first unservable query
  std::vector<Id> key;                    // one buffer for every query's key
  double total = 0;
  for (size_t i = 0; i < queries_->size(); ++i) {
    if (freqs[i] <= 0) continue;
    Result<double> cost = CachedQueryCost(i, schema, stats, schema_ids, stats_id, &key);
    if (!cost.ok()) {
      if (cost.status().IsBindError() && options.fallback_schema != nullptr) {
        if (!fallback_ids.has_value()) fallback_ids = InternSchema(*options.fallback_schema);
        PSE_ASSIGN_OR_RETURN(double fb, CachedQueryCost(i, *options.fallback_schema, stats,
                                                        *fallback_ids, stats_id, &key));
        total += options.unservable_penalty * fb * freqs[i];
        continue;
      }
      return cost.status();
    }
    total += *cost * freqs[i];
  }
  return total;
}

}  // namespace pse

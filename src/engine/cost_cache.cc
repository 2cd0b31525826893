#include "engine/cost_cache.h"

#include <cstdio>

namespace pse {

std::string CostCacheStats::ToString() const {
  char line[128];
  std::snprintf(line, sizeof(line), "cost cache: %llu hits / %llu lookups (%.1f%%), %llu evictions",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups()), hit_pct(),
                static_cast<unsigned long long>(evictions));
  return line;
}

CostCacheStats operator-(const CostCacheStats& a, const CostCacheStats& b) {
  CostCacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  return d;
}

QueryCostCache::Id QueryCostCache::Intern(WordsMap<uint64_t, Id>* ids,
                                          std::span<const uint64_t> content) {
  auto it = ids->find(content);
  if (it != ids->end()) return it->second;
  const Id id = static_cast<Id>(ids->size());
  ids->emplace(std::vector<uint64_t>(content.begin(), content.end()), id);
  return id;
}

QueryCostCache::Id QueryCostCache::InternLayout(std::span<const uint64_t> layout) {
  std::lock_guard<std::mutex> lock(mu_);
  return Intern(&layout_ids_, layout);
}

QueryCostCache::Id QueryCostCache::InternStats(std::span<const uint64_t> content) {
  std::lock_guard<std::mutex> lock(mu_);
  return Intern(&stats_ids_, content);
}

QueryCostCache::Id QueryCostCache::InternQuery(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  return query_ids_.try_emplace(std::string(text), static_cast<Id>(query_ids_.size()))
      .first->second;
}

std::optional<QueryCostCache::Outcome> QueryCostCache::Lookup(std::span<const Id> key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = outcomes_.find(key);
  if (it != outcomes_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void QueryCostCache::Insert(std::span<const Id> key, Outcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (outcomes_.find(key) != outcomes_.end()) return;  // deterministic outcome already present
  if (outcomes_.size() >= max_entries_) {
    stats_.evictions += outcomes_.size();
    outcomes_.clear();
  }
  outcomes_.emplace(std::vector<Id>(key.begin(), key.end()), outcome);
}

CostCacheStats QueryCostCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t QueryCostCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outcomes_.size();
}

void QueryCostCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  outcomes_.clear();
}

}  // namespace pse

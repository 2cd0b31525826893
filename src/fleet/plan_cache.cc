#include "fleet/plan_cache.h"

#include <mutex>
#include <utility>

#include "core/rewriter.h"

namespace pse {

namespace {

/// Appends `text` behind its length, so that it cannot run into what
/// follows.
void AppendField(const std::string& text, std::string* key) {
  *key += std::to_string(text.size());
  *key += ':';
  *key += text;
}

/// The exact key of (step, query): the step, the query's name, its full
/// logical text, in which every constant names one (type, value) pair, and
/// the output names, which the rewrite copies and the text omits.
std::string KeyText(size_t step, const LogicalQuery& query, const LogicalSchema& logical) {
  std::string key = std::to_string(step);
  key += ':';
  AppendField(query.name, &key);
  AppendField(query.ToString(logical), &key);
  for (const LogicalSelectItem& item : query.select) AppendField(item.name, &key);
  return key;
}

}  // namespace

Result<BoundQuery> SharedPlanCache::GetOrRewrite(size_t step, const LogicalQuery& query,
                                                 const PhysicalSchema& schema) {
  std::string key = KeyText(step, query, *schema.logical());
  {
    std::lock_guard<Mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (!it->second.unservable.ok()) return it->second.unservable;
      return it->second.bound->Clone();
    }
  }
  // Miss: rewrite outside the lock. Two lanes racing the same key both
  // rewrite (the outcome is deterministic, so whichever insert wins is
  // equivalent); the loser's work only costs an extra recorded miss.
  Result<BoundQuery> bound = RewriteQuery(query, schema);
  Entry entry;
  if (!bound.ok()) {
    if (!bound.status().IsBindError()) return bound.status();
    entry.unservable = bound.status();
  } else {
    entry.bound = std::make_shared<const BoundQuery>(std::move(*bound));
  }
  std::lock_guard<Mutex> lock(mu_);
  ++stats_.misses;
  auto it = entries_.emplace(std::move(key), std::move(entry)).first;
  if (!it->second.unservable.ok()) return it->second.unservable;
  return it->second.bound->Clone();
}

PlanCacheStats SharedPlanCache::Snapshot() const {
  std::lock_guard<Mutex> lock(mu_);
  return stats_;
}

size_t SharedPlanCache::size() const {
  std::lock_guard<Mutex> lock(mu_);
  return entries_.size();
}

void SharedPlanCache::Clear() {
  std::lock_guard<Mutex> lock(mu_);
  entries_.clear();
  stats_ = PlanCacheStats{};
}

}  // namespace pse

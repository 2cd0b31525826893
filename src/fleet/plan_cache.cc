#include "fleet/plan_cache.h"

#include <mutex>
#include <utility>

#include "core/rewriter.h"

namespace pse {

namespace {

/// Mixes the trajectory step into the query fingerprint (splitmix-style odd
/// constant, so adjacent steps land far apart).
uint64_t StepKey(size_t step, uint64_t fingerprint) {
  return fingerprint ^ (static_cast<uint64_t>(step) * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
}

/// FNV-1a 64-bit hash of a query's canonical text.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace

uint64_t SharedPlanCache::FingerprintQuery(const LogicalQuery& query,
                                           const LogicalSchema& logical) {
  return Fnv1a(query.name + "|" + query.ToString(logical));
}

Result<BoundQuery> SharedPlanCache::GetOrRewrite(size_t step, const LogicalQuery& query,
                                                 const PhysicalSchema& schema) {
  const uint64_t key = StepKey(step, FingerprintQuery(query, *schema.logical()));
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
  auto it = entries_.emplace(key, std::move(entry)).first;
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

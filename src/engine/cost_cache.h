// Memoized query-cost cache: the shared fast path under LAA/GAA/advisor
// candidate costing.
//
// A query's estimated cost on a candidate schema depends only on the query,
// the statistics and the physical tables storing its support attributes
// (DESIGN.md §12/§13), so the planners key each EstimateQueryCost result by
// an exact tuple of small integers: the query's id, the statistics' id and
// one table id per support attribute. This class interns the three kinds of
// content behind those ids — workload queries (canonical text), statistics
// snapshots (their full content words) and table layouts (anchor entity +
// attribute ids) — and stores one outcome per key tuple
// (src/core/cost_estimator.h builds the tuples). Interning compares content
// exactly, so two keys are equal only when everything they stand for is.
// Two candidate schemas that agree on a query's relevant tables then share
// one cached estimate, and the cache keeps paying off across enumeration
// subsets, GA generations, and migration points.
//
// Thread-safe: a single mutex guards the maps — the cached work (rewrite ->
// plan -> cost, ~100µs+) dwarfs the critical section.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pse {

/// Counters describing a cache's activity; subtract two snapshots to get the
/// delta of one planning run.
struct CostCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries dropped by the size cap (the cache clears wholesale — an epoch
  /// eviction — when it would exceed max_entries).
  uint64_t evictions = 0;

  uint64_t lookups() const { return hits + misses; }
  /// Hit percentage in [0, 100]; 0 when no lookups happened.
  double hit_pct() const {
    return lookups() == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(lookups());
  }
  std::string ToString() const;
};

CostCacheStats operator-(const CostCacheStats& a, const CostCacheStats& b);

/// \brief Thread-safe interning of key content plus an exact
/// (id tuple) -> query-cost outcome map.
class QueryCostCache {
 public:
  /// One memoized EstimateQueryCost outcome: either an I/O cost or the fact
  /// that the query does not bind on that layout (callers then reprice via
  /// their fallback schema, exactly like the uncached path).
  struct Outcome {
    double cost = 0;
    bool bind_error = false;
  };

  /// Interned id: dense per content kind, fixed for the cache's lifetime.
  using Id = uint32_t;
  /// Key slot of a support attribute that no table stores. Never an
  /// interned id.
  static constexpr Id kAbsent = ~Id{0};

  explicit QueryCostCache(size_t max_entries = 1u << 20) : max_entries_(max_entries) {}

  /// Id of a table layout: its anchor entity followed by its attribute ids.
  Id InternLayout(std::span<const uint64_t> layout);
  /// Id of a statistics snapshot, given as its full content words.
  Id InternStats(std::span<const uint64_t> content);
  /// Id of a workload query, given as its canonical text.
  Id InternQuery(std::string_view text);

  /// Returns the outcome stored under `key`, if any.
  std::optional<Outcome> Lookup(std::span<const Id> key);

  /// Stores `outcome` under `key`. Re-inserting an existing key is a no-op
  /// (outcomes are deterministic). When the cache would exceed max_entries
  /// its outcomes are cleared wholesale first (epoch eviction).
  void Insert(std::span<const Id> key, Outcome outcome);

  CostCacheStats Snapshot() const;
  /// Stored outcomes (interned content is not counted).
  size_t size() const;
  /// Drops every outcome. Interned ids survive — like eviction — so ids
  /// an estimator already holds never change meaning.
  void Clear();

 private:
  /// Hash and equality over integer sequences, usable with a span in place
  /// of the stored vector (no allocation per lookup).
  template <typename Word>
  struct WordsHash {
    using is_transparent = void;
    size_t operator()(std::span<const Word> words) const noexcept {
      uint64_t h = 0x9E3779B97F4A7C15ULL ^ words.size();
      for (Word w : words) {
        h ^= static_cast<uint64_t>(w) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };
  template <typename Word>
  struct WordsEq {
    using is_transparent = void;
    bool operator()(std::span<const Word> a, std::span<const Word> b) const noexcept {
      return std::ranges::equal(a, b);
    }
  };
  template <typename Word, typename Value>
  using WordsMap = std::unordered_map<std::vector<Word>, Value, WordsHash<Word>, WordsEq<Word>>;

  static Id Intern(WordsMap<uint64_t, Id>* ids, std::span<const uint64_t> content);

  mutable std::mutex mu_;
  WordsMap<uint64_t, Id> layout_ids_;
  WordsMap<uint64_t, Id> stats_ids_;
  std::unordered_map<std::string, Id> query_ids_;
  WordsMap<Id, Outcome> outcomes_;
  size_t max_entries_;
  CostCacheStats stats_;
};

}  // namespace pse

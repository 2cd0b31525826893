// The library's one open-addressing hash table: the batch engine's hash
// join, aggregation and DISTINCT key rows through it, and ANALYZE counts
// distinct values with it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pse {

/// Spreads every bit of `h` over the whole word (the murmur3 64-bit
/// finalizer). Value::Hash of an integer is the integer itself —
/// libstdc++'s std::hash<int64_t> is the identity — so masking it unmixed
/// would send keys that differ only above the mask, such as multiples of
/// 65,536, to one slot. A bijection: two hashes mix alike only if equal.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// \brief Open addressing over entry ids.
///
/// Entries are numbered 0, 1, 2, ... in insertion order. The table holds
/// only each entry's id and mixed hash; the caller keeps the key itself (in
/// batches it retained, or in key columns) and answers equality through
/// `eq(id)`, which is called only for entries whose stored hash matches.
/// Linear probing over a power-of-two slot array at most half full; growth
/// doubles it and re-inserts the ids in ascending order.
class RowIndexTable {
 public:
  /// The id no entry has.
  static constexpr uint32_t kNone = UINT32_MAX;

  size_t size() const { return hashes_.size(); }

  void Clear() {
    slots_.clear();
    hashes_.clear();
  }

  /// Makes room for `entries` entries, so that inserting up to that many
  /// never grows the table.
  void Reserve(size_t entries) {
    hashes_.reserve(entries);
    const size_t want = std::bit_ceil(std::max<size_t>(16, 2 * entries));
    if (want > slots_.size()) Rehash(want);
  }

  /// The entry with mixed hash `hash` for which `eq` holds, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kNone || (hashes_[id] == hash && eq(id))) return id;
    }
  }

  /// Like Find, but appends a new entry (id = the old size()) when none
  /// matches; `*inserted` says which happened.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, const Eq& eq, bool* inserted) {
    if (2 * (hashes_.size() + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    for (; slots_[i] != kNone; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (hashes_[id] == hash && eq(id)) {
        *inserted = false;
        return id;
      }
    }
    const auto id = static_cast<uint32_t>(hashes_.size());
    slots_[i] = id;
    hashes_.push_back(hash);
    *inserted = true;
    return id;
  }

 private:
  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, kNone);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;   ///< entry id or kNone
  std::vector<uint64_t> hashes_;  ///< per entry
};

}  // namespace pse

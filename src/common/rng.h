// Deterministic pseudo-random number generation. All randomized components
// (data generator, GA, property tests) take an explicit Rng so that every
// run is reproducible from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pse {

/// \brief xoshiro256** generator: fast, high-quality, deterministic.
///
/// Satisfies the UniformRandomBitGenerator concept so it can be used with
/// <random> distributions as well.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds via SplitMix64 expansion of a single 64-bit seed.
  void Seed(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double UniformDouble();
  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Random index in [0, n). Requires n > 0.
  size_t Index(size_t n) { return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1)); }

  /// Random lowercase alpha string of the given length.
  std::string AlphaString(size_t length);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Index(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace pse

#include "common/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pse {

size_t LatencyHistogram::BucketOf(uint64_t nanos) {
  const uint64_t v = std::min(nanos, (uint64_t{1} << kValueBits) - 1);
  // shift = how many low bits a bucket of v's power-of-two range ignores.
  const int msb = static_cast<int>(std::bit_width(v)) - 1;
  const int shift = std::max(0, msb - kSubBucketBits);
  return (static_cast<size_t>(shift) << kSubBucketBits) + static_cast<size_t>(v >> shift);
}

uint64_t LatencyHistogram::Midpoint(size_t bucket) {
  const size_t shift = bucket < (size_t{2} << kSubBucketBits) ? 0 : (bucket >> kSubBucketBits) - 1;
  const uint64_t lower = static_cast<uint64_t>(bucket - (shift << kSubBucketBits)) << shift;
  return lower + ((uint64_t{1} << shift) >> 1);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank_real = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_));
  const uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(rank_real));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return Midpoint(i);
  }
  return Midpoint(kBuckets - 1);  // unreachable: the counts sum to count_
}

}  // namespace pse

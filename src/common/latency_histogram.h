// LatencyHistogram: the one latency summary of a serve window. Each serve
// lane fills its own histogram; the driver merges them after the join and
// reads p50/p95/p99 off the merged counts.
//
// Layout (HdrHistogram-style, fixed, nothing settable). Values are integer
// nanoseconds. Values below 2^8 ns each get a bucket of their own. Above
// that, every power-of-two range [2^m, 2^(m+1)) is cut into 2^7 equal
// buckets of width 2^(m-7). A quantile reports the midpoint of the bucket
// its rank falls in, so it is within kRelativeError = 2^-8 (0.39%) of the
// recorded value at that rank. Values at or above 2^40 ns (about 18 minutes)
// are counted in the top bucket, where that bound does not hold.
//
// The counts are a fixed array inside the object: Record and Merge never
// allocate, memory is the same at any rate, and Merge is bucket-wise
// addition, so merged per-lane histograms equal the histogram of all the
// lanes' samples recorded into one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pse {

class LatencyHistogram {
 public:
  /// log2 of the buckets per power-of-two range.
  static constexpr int kSubBucketBits = 7;
  /// Values are clamped below 2^kValueBits ns.
  static constexpr int kValueBits = 40;
  static constexpr size_t kBuckets = static_cast<size_t>(kValueBits - kSubBucketBits + 1)
                                     << kSubBucketBits;
  /// Bound on |Quantile(q) - v| / v, for v the recorded value at q's rank.
  static constexpr double kRelativeError = 1.0 / (2 << kSubBucketBits);

  void Record(uint64_t nanos) {
    ++counts_[BucketOf(nanos)];
    ++count_;
  }
  /// Adds `other`'s counts into this histogram.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  /// Nearest-rank quantile in nanoseconds: the value of rank ceil(q * count)
  /// (at least 1), to within kRelativeError. 0 when empty.
  uint64_t Quantile(double q) const;

  bool operator==(const LatencyHistogram& other) const = default;

 private:
  static size_t BucketOf(uint64_t nanos);
  /// The value a quantile landing in `bucket` reports.
  static uint64_t Midpoint(size_t bucket);

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace pse

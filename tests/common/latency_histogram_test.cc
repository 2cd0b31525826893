// LatencyHistogram properties: quantiles within the stated relative error of
// the exact nearest-rank ones on seeded samples of several shapes spanning
// 1 µs to 10 s, merge equal to recording everything into one histogram,
// 0 when empty, and monotone in q.
#include "common/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace pse {
namespace {

constexpr uint64_t kMicro = 1000;
constexpr uint64_t kMilli = 1000 * kMicro;
constexpr uint64_t kSecond = 1000 * kMilli;
constexpr size_t kSamples = 20000;

uint64_t Clamp(double ns) {
  return static_cast<uint64_t>(std::clamp(ns, static_cast<double>(kMicro),
                                          static_cast<double>(10 * kSecond)));
}

struct Shape {
  std::string name;
  std::vector<uint64_t> samples;
};

std::vector<Shape> Shapes() {
  std::mt19937_64 rng(20261017);
  std::vector<Shape> shapes;
  Shape uniform{"uniform", {}};
  std::uniform_int_distribution<uint64_t> flat(kMicro, 10 * kSecond);
  for (size_t i = 0; i < kSamples; ++i) uniform.samples.push_back(flat(rng));
  shapes.push_back(std::move(uniform));

  Shape exponential{"exponential", {}};
  std::exponential_distribution<double> expo(1.0 / (2.0 * kMilli));
  for (size_t i = 0; i < kSamples; ++i) exponential.samples.push_back(Clamp(expo(rng)));
  shapes.push_back(std::move(exponential));

  // Keyed lookups around 20 µs and table scans around 50 ms, 9 to 1.
  Shape bimodal{"bimodal", {}};
  std::normal_distribution<double> lookup(20.0 * kMicro, 5.0 * kMicro);
  std::normal_distribution<double> scan(50.0 * kMilli, 10.0 * kMilli);
  std::bernoulli_distribution is_scan(0.1);
  for (size_t i = 0; i < kSamples; ++i) {
    bimodal.samples.push_back(Clamp(is_scan(rng) ? scan(rng) : lookup(rng)));
  }
  shapes.push_back(std::move(bimodal));

  shapes.push_back(Shape{"all-equal", std::vector<uint64_t>(kSamples, 1234567)});
  return shapes;
}

/// The value of rank ceil(q * n) (at least 1) among the sorted samples.
uint64_t NearestRank(const std::vector<uint64_t>& sorted, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

TEST(LatencyHistogramTest, QuantilesStayWithinTheStatedRelativeError) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    LatencyHistogram h;
    for (uint64_t v : shape.samples) h.Record(v);
    ASSERT_EQ(h.count(), shape.samples.size());
    std::vector<uint64_t> sorted = shape.samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.50, 0.95, 0.99, 1.0}) {
      const double exact = static_cast<double>(NearestRank(sorted, q));
      const double got = static_cast<double>(h.Quantile(q));
      EXPECT_LE(std::abs(got - exact), exact * LatencyHistogram::kRelativeError)
          << "q=" << q << " exact=" << exact << " got=" << got;
    }
  }
}

TEST(LatencyHistogramTest, MergedLanesEqualOneHistogramOfAllSamples) {
  constexpr size_t kLanes = 5;
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    std::vector<LatencyHistogram> lanes(kLanes);
    LatencyHistogram whole;
    for (size_t i = 0; i < shape.samples.size(); ++i) {
      lanes[i % kLanes].Record(shape.samples[i]);
      whole.Record(shape.samples[i]);
    }
    LatencyHistogram merged;
    for (const LatencyHistogram& lane : lanes) merged.Merge(lane);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_TRUE(merged == whole) << "merged per-lane buckets differ from the whole";
  }
}

TEST(LatencyHistogramTest, EmptyReportsZeroAndQuantilesAreMonotone) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(empty.Quantile(q), 0u);

  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE(shape.name);
    LatencyHistogram h;
    for (uint64_t v : shape.samples) h.Record(v);
    uint64_t last = 0;
    for (int i = 0; i <= 1000; ++i) {
      const uint64_t v = h.Quantile(i / 1000.0);
      EXPECT_GE(v, last) << "q=" << i / 1000.0;
      last = v;
    }
  }
}

}  // namespace
}  // namespace pse

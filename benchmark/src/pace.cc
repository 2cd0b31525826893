#include "pace.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "trace.h"

namespace psebench {
namespace {

/// The loop's time on a fast vCPU of the 4-vCPU Xeon guest the bounds were
/// set on; slow stretches there take 4.2-4.6 ms.
constexpr double kReferenceLoopMs = 3.3;

/// How much more the benchmark's work slows on a slow stretch than the
/// loop does, in log terms: a pace is the loop's slowdown to this power.
/// Fitted on that guest by regressing the log wall time of a Pro-Schema
/// simulation, a large tenant's rollout and a planning pass on the log of
/// the loop's time around each (about 2000 samples over 7 minutes): the
/// slopes were 1.53, 1.16 and 1.71.
constexpr double kSensitivity = 1.5;

/// Keeps the loop's result alive, so that the compiler cannot drop the loop.
volatile size_t g_sink = 0;

/// A fixed mix of the work the library does most: filling, sorting, hashing
/// and probing a few hundred KiB, with allocation. Returns its wall time.
double LoopMs() {
  std::vector<uint64_t> v(1 << 15);
  uint64_t x = 88172645463325252ULL;
  const int64_t start = NowNs();
  for (uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, size_t> map;
  for (size_t i = 0; i < 8192; ++i) map[v[i * 4]] = i;
  size_t hits = 0;
  for (uint64_t e : v) hits += map.count(e);
  const int64_t end = NowNs();
  g_sink = g_sink + hits;
  return static_cast<double>(end - start) / 1e6;
}

}  // namespace

std::vector<int> UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(sched_getcpu());
  return cpus;
}

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // A failure leaves the thread where it was: its pace is still measured
  // where it runs, only less closely.
  sched_setaffinity(0, sizeof(set), &set);
}

double Pace(int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(LoopMs());
  std::nth_element(ms.begin(), ms.begin() + reps / 2, ms.end());
  return std::pow(ms[static_cast<size_t>(reps / 2)] / kReferenceLoopMs, kSensitivity);
}

double PaceOn(int cpu) {
  PinTo({cpu});
  return Pace();
}

double PaceOf(const std::vector<int>& cpus) {
  double sum = 0;
  for (int cpu : cpus) sum += PaceOn(cpu);
  return sum / static_cast<double>(cpus.size());
}

}  // namespace psebench

// Runs a test's concurrent lanes on plain threads.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace pse {
namespace testutil {

/// Runs fn(lane) for every lane in [0, lanes), each on a thread of its own,
/// and returns once every lane has finished (a jthread joins when it is
/// destroyed).
template <typename Fn>
void RunLanes(size_t lanes, const Fn& fn) {
  std::vector<std::jthread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) threads.emplace_back([&fn, lane] { fn(lane); });
}

}  // namespace testutil
}  // namespace pse

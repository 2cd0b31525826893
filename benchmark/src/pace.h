// Host pace: how slow the vCPU a thread runs on is, right now.
//
// The benchmark's host is shared. Each of its vCPUs switches, for seconds
// to minutes at a time, between two speeds about 1.3-1.5x apart, as other
// guests' load comes and goes, and a whole run can fall on the slow one.
// Ten runs of a wall time then spread by up to a third: more than any bound
// a metric may carry. So every timing the benchmark reports is taken at the
// reference pace: its wall time divided by the pace of the vCPUs that did
// the work, measured on them just before and just after it. A pace is the
// time a fixed calibration loop takes on that vCPU over the loop's
// reference time, its time on a fast vCPU of the machine the bounds were
// set on (README.md), raised to a power fitted there: the benchmark's work
// slows more on a slow stretch than the loop does. The loop is benchmark
// code: a change to the library cannot speed it up or slow it down.
#pragma once

#include <vector>

namespace psebench {

/// The CPUs this process may run on, in ascending order.
std::vector<int> UsableCpus();

/// Restricts the calling thread to `cpus`. Threads it starts afterwards
/// inherit the restriction.
void PinTo(const std::vector<int>& cpus);

/// The calling thread's pace: the calibration loop's time (the median of
/// `reps` runs) over its reference time, to the fitted power.
double Pace(int reps = 3);

/// Pins the calling thread to `cpu` and returns that vCPU's Pace(). The
/// thread stays pinned there.
double PaceOn(int cpu);

/// The mean pace of `cpus`, measured one after another by the calling
/// thread, which stays pinned to the last of them.
double PaceOf(const std::vector<int>& cpus);

}  // namespace psebench

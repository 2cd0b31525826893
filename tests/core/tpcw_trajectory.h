// The TPC-W fleet trajectory as the benchmark plans it, for the
// single-threaded TPC-W-sized suites that walk it.
#pragma once

#include <vector>

#include "fleet/schedule.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {

/// LAA over the five Fig 9 phases, with the statistics of a 300-item /
/// 500-customer tenant.
inline Result<FleetSchedule> PlanTpcwTrajectory(const TpcwSchema& tpcw) {
  auto queries = BuildTpcwWorkload(tpcw);
  if (!queries.ok()) return queries.status();
  const std::vector<std::vector<double>> phase_freqs = Fig9IrregularFrequencies();
  const LogicalStats stats =
      GenerateTpcwData(tpcw, TpcwScale{"300 items / 500 customers", 300, 500}, 1)->ComputeStats();
  FleetScheduleInputs inputs;
  inputs.queries = &*queries;
  inputs.phase_freqs = &phase_freqs;
  inputs.stats = &stats;
  return PlanFleetSchedule(tpcw.source, tpcw.object, inputs);
}

}  // namespace pse

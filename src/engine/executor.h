// Query execution entry point. A planned query runs on the batch-at-a-time
// operators of engine/vec_executor.h under one set of table latches held
// for the whole execution. Physical I/O flows through the Database's buffer
// pool, so executed plans are measured by the same counters the experiments
// report.
#pragma once

#include <vector>

#include "engine/plan.h"
#include "storage/database.h"

namespace pse {

/// Builds, runs, and collects all output rows of `plan`. Holds the shared
/// content latch of every table the plan reads from before the first batch
/// until the last, so the result reflects one state of each table.
Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, Database* db);

}  // namespace pse

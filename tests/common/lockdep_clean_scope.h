// Asserts a clean lockdep report over one test scenario.
#pragma once

#include <gtest/gtest.h>

#include "analysis/lockorder.h"
#include "common/lock_registry.h"

namespace pse {
namespace testutil {

/// Clears the lock registry before a scenario; at scope end asserts a clean
/// lockdep report — zero recorded violations and an acyclic, rank-ordered
/// acquisition graph — plus that instrumentation actually observed latch
/// traffic. In a non-lockdep build the latch hooks compile out, so the
/// checks pass trivially; the check.sh --lockdep and --tsan legs build the
/// suites with PROGSCHEMA_LOCKDEP=ON, where they bite.
class LockdepCleanScope {
 public:
  LockdepCleanScope() { LockRegistry::Instance().ClearEvents(); }
  ~LockdepCleanScope() {
    LockOrderGraph g = LockRegistry::Instance().Snapshot();
    for (const LockViolation& v : g.violations) {
      ADD_FAILURE() << "lockdep violation: " << v.ToString();
    }
    DiagnosticReport report = AnalyzeLockOrder(g);
    EXPECT_TRUE(report.ok()) << report.ToString();
#ifdef PSE_LOCKDEP
    EXPECT_GT(g.acquisitions, 0u) << "lockdep build recorded no acquisitions";
#endif
    LockRegistry::Instance().ClearEvents();
  }
};

}  // namespace testutil
}  // namespace pse

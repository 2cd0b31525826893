// TPC-W tenants and their two-version client traffic.
//
// Everything here is generated from the benchmark seed and driven through
// the library's public API only: tenants are TenantShards created from
// generated TPC-W data, reads go SharedPlanCache::GetOrRewrite -> PlanQuery
// -> ExecutePlan, writes go through each shard's DmlRouter. Every call into
// a layer is timed here, from outside, into the statement's spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/writability.h"
#include "common/rng.h"
#include "core/rewriter_dml.h"
#include "fleet/plan_cache.h"
#include "fleet/scheduler.h"
#include "fleet/tenant_shard.h"
#include "tpcw/datagen.h"
#include "tpcw/schema.h"
#include "trace.h"

namespace psebench {

using pse::EntityId;

/// Inputs shared by every tenant: the schemas, the 20 TPC-W queries and the
/// read mix (Fig 9's P2-P3 column).
struct World {
  std::unique_ptr<pse::TpcwSchema> schema;
  std::vector<pse::WorkloadQuery> queries;  ///< O1..O10 then N1..N10
  std::vector<double> read_weights;
  /// One candidate write target: a version table of either application
  /// version, weighted by how often TPC-W's write interactions touch its
  /// anchor entity in the chosen mix.
  struct WriteTable {
    pse::VersionTable table;
    double weight = 0;
  };
  std::vector<WriteTable> write_tables;
};

/// Which TPC-W mix the clients run: the share of statements that write.
enum class Mix { kReadOnly, kShopping, kOrdering };
double WriteFraction(Mix mix);

World MakeWorld(Mix mix);

/// Keys of one tenant that inserts and deletes may use: a small range just
/// above the generated keys of each written entity. Generated rows are only
/// updated, never deleted, so every foreign key can name a generated parent.
class TenantKeys {
 public:
  static constexpr int64_t kExtraKeys = 32;

  TenantKeys(const pse::LogicalDatabase& data, const World& world);

  /// Reserves a key for `kind` on `entity` (may turn an insert into a delete
  /// when the range is full, and back); returns false when nothing fits.
  bool Claim(EntityId entity, pse::DmlKind* kind, int64_t* key, pse::Rng* rng);
  /// Ends a reservation: `applied` says whether the statement took effect.
  void Release(EntityId entity, pse::DmlKind kind, int64_t key, bool applied);
  int64_t generated(EntityId entity) const { return generated_[entity]; }

 private:
  std::mutex mu_;  ///< guards free_ and present_
  std::vector<int64_t> generated_;
  std::vector<std::vector<int64_t>> free_;
  std::vector<std::vector<int64_t>> present_;
};

/// A fleet of tenants walking one planned TPC-W trajectory.
struct Fleet {
  std::vector<std::unique_ptr<pse::LogicalDatabase>> instances;
  std::vector<size_t> instance_of;  ///< tenant -> index into instances
  std::vector<bool> audit;          ///< read-only tenants checked after the run
  std::vector<std::unique_ptr<TenantKeys>> keys;  ///< null for audit tenants
  std::unique_ptr<pse::SharedPlanCache> cache;
  std::unique_ptr<pse::FleetScheduler> scheduler;
};

struct FleetSpec {
  size_t tenants = 1;
  pse::TpcwScale scale;
  size_t pool_pages = 64;
  /// Tenant t starts at step (t mod (steps + 1)) when true, else at step 0.
  bool park_across_steps = false;
};

/// Generates up to eight data sets, which the tenants share read-only, plans
/// the shared schedule (LAA over Fig 9) and creates every shard. Exits the
/// process on a library error.
Fleet BuildFleet(const World& world, const FleetSpec& spec, uint64_t seed);

/// What one client saw. Every completed statement has a latency and a
/// shape: the read query it ran, or the version table and kind it wrote.
struct ClientStats {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<uint32_t> read_shape;   ///< parallel to read_ms
  std::vector<uint32_t> write_shape;  ///< parallel to write_ms
  uint64_t attempted = 0;
  uint64_t unservable_reads = 0;
  uint64_t unservable_writes = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Runs one closed-loop client (one pooled connection) until `stop`.
/// Statements that start while `measuring` is false are executed but not
/// counted (warm-up).
void RunClient(const World& world, Fleet* fleet, double write_fraction, uint64_t seed,
               const std::atomic<bool>& stop, const std::atomic<bool>& measuring,
               Tracer::Buffer* trace, ClientStats* out);

/// Per data set (an index into Fleet::instances), the sorted rows of every
/// query on a fresh object-schema materialization of it.
using ExpectedAnswers = std::vector<std::vector<std::vector<pse::Row>>>;

/// Runs every query servable at each audit tenant's step and compares it,
/// row for row, with the same query on a fresh object-schema
/// materialization of the tenant's data. Returns the mismatches found.
/// `answers` holds those of data sets already materialized and gains the
/// others; fleets built from one seed have the same data sets, so it may be
/// kept across them.
std::vector<std::string> AuditTenants(const World& world, Fleet* fleet,
                                      ExpectedAnswers* answers);

}  // namespace psebench

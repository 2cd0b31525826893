#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <shared_mutex>

#include "core/rewriter.h"
#include "engine/catalog_view.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "fleet/schedule.h"
#include "tpcw/queries.h"
#include "tpcw/workloads.h"

namespace psebench {

using pse::DmlKind;
using pse::Rng;
using pse::Row;
using pse::Status;

namespace {

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

size_t PickWeighted(const std::vector<double>& cumulative, Rng* rng) {
  const double x = rng->UniformDouble() * cumulative.back();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
  return std::min(static_cast<size_t>(it - cumulative.begin()), cumulative.size() - 1);
}

std::vector<double> Cumulative(const std::vector<double>& weights) {
  std::vector<double> out(weights.size());
  double sum = 0;
  for (size_t i = 0; i < weights.size(); ++i) out[i] = sum += weights[i];
  return out;
}

/// A shuffled deck holding card i round(counts[i]) times, reshuffled when
/// drawn out (TPC-C keeps its transaction mix with such decks). Every full
/// deck reproduces the mix exactly, so a run's mix does not drift with the
/// seed -- which matters when the mix straddles two latency modes.
class Deck {
 public:
  explicit Deck(const std::vector<double>& counts) {
    for (size_t i = 0; i < counts.size(); ++i) {
      cards_.insert(cards_.end(), static_cast<size_t>(std::llround(counts[i])), i);
    }
    next_ = cards_.size();
  }
  size_t Draw(Rng* rng) {
    if (next_ == cards_.size()) {
      rng->Shuffle(&cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

double Ms(int64_t from_ns, int64_t to_ns) { return static_cast<double>(to_ns - from_ns) / 1e6; }

std::vector<Row> SortRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

/// Runs `query` on `schema` in `db` through rewrite, plan and execute, with
/// the rows sorted so that layouts can be compared.
pse::Result<std::vector<Row>> RunSorted(pse::Database* db, const pse::PhysicalSchema& schema,
                                        const pse::LogicalQuery& query) {
  PSE_ASSIGN_OR_RETURN(pse::BoundQuery bound, pse::RewriteQuery(query, schema));
  pse::DatabaseCatalogView view(db);
  PSE_ASSIGN_OR_RETURN(pse::PlanPtr plan, pse::PlanQuery(bound, view));
  PSE_ASSIGN_OR_RETURN(std::vector<Row> rows, pse::ExecutePlan(*plan, db));
  return SortRows(std::move(rows));
}

pse::Value RandomValue(pse::TypeId type, Rng* rng) {
  switch (type) {
    case pse::TypeId::kBoolean:
      return pse::Value::Bool(rng->Bernoulli(0.5));
    case pse::TypeId::kInt64:
      return pse::Value::Int(rng->UniformInt(0, 9999));
    case pse::TypeId::kDouble:
      return pse::Value::Double(static_cast<double>(rng->UniformInt(100, 99999)) / 100.0);
    case pse::TypeId::kVarchar:
      return pse::Value::Varchar("w" + std::to_string(rng->UniformInt(0, 99999)));
  }
  return pse::Value::Null(type);
}

/// One entity-level statement against `table`. Inserts assign every
/// attribute; updates a random non-empty subset. Foreign keys always name a
/// generated (never deleted) parent.
pse::LogicalDml MakeDml(const World& world, const pse::VersionTable& table, DmlKind kind,
                        int64_t key, const TenantKeys& keys, Rng* rng) {
  const pse::LogicalSchema& logical = world.schema->logical;
  pse::LogicalDml dml;
  dml.kind = kind;
  dml.table = table;
  dml.key = key;
  if (kind == DmlKind::kDelete) return dml;
  auto assign = [&](pse::AttrId a) {
    const pse::LogicalAttribute& attr = logical.attr(a);
    dml.set_attrs.push_back(a);
    dml.set_values.push_back(
        attr.references.has_value()
            ? pse::Value::Int(rng->UniformInt(0, keys.generated(*attr.references) - 1))
            : RandomValue(attr.type, rng));
  };
  for (pse::AttrId a : table.attrs) {
    const bool fk = logical.attr(a).references.has_value();
    if (kind == DmlKind::kUpdate && !rng->Bernoulli(fk ? 0.25 : 0.5)) continue;
    assign(a);
  }
  if (dml.set_attrs.empty() && !table.attrs.empty()) {
    assign(table.attrs[rng->Index(table.attrs.size())]);
  }
  return dml;
}

}  // namespace

double WriteFraction(Mix mix) {
  switch (mix) {
    case Mix::kReadOnly:
      return 0.0;
    case Mix::kShopping:
      return 0.2;
    case Mix::kOrdering:
      return 0.5;
  }
  return 0.0;
}

World MakeWorld(Mix mix) {
  World w;
  w.schema = pse::BuildTpcwSchema();
  auto queries = pse::BuildTpcwWorkload(*w.schema);
  if (!queries.ok()) Die("TPC-W workload", queries.status());
  w.queries = std::move(*queries);
  w.read_weights = pse::Fig9IrregularFrequencies()[2];  // P2-P3

  // TPC-W web-interaction frequencies (%) of the writing interactions, as
  // (Shopping, Ordering): Customer Registration inserts a customer and an
  // address (3.00, 12.86); Buy Request updates them (2.60, 12.73); Buy
  // Confirm writes the order, its lines and its payment (1.20, 10.18);
  // Admin Confirm updates an item (0.09, 0.11).
  const pse::TpcwSchema& s = *w.schema;
  const bool shopping = mix != Mix::kOrdering;
  const double customer = shopping ? 3.00 + 2.60 : 12.86 + 12.73;
  const double order = shopping ? 1.20 : 10.18;
  const double item = shopping ? 0.09 : 0.11;
  std::vector<double> entity_weight(s.logical.num_entities(), 0.0);
  entity_weight[s.customer] = customer;
  entity_weight[s.address] = customer;
  entity_weight[s.orders] = order;
  entity_weight[s.order_line] = order;
  entity_weight[s.cc_xacts] = order;
  entity_weight[s.item] = item;

  std::vector<pse::VersionTable> tables = pse::VersionTablesOf(s.source);
  for (pse::VersionTable& t : pse::VersionTablesOf(s.object)) tables.push_back(std::move(t));
  std::vector<size_t> per_anchor(s.logical.num_entities(), 0);
  for (const pse::VersionTable& t : tables) ++per_anchor[t.anchor];
  for (pse::VersionTable& t : tables) {
    const double weight = entity_weight[t.anchor] / static_cast<double>(per_anchor[t.anchor]);
    if (weight > 0) w.write_tables.push_back({std::move(t), weight});
  }
  return w;
}

TenantKeys::TenantKeys(const pse::LogicalDatabase& data, const World& world)
    : generated_(world.schema->logical.num_entities(), 0),
      free_(generated_.size()),
      present_(generated_.size()) {
  for (EntityId e = 0; e < generated_.size(); ++e) {
    generated_[e] = static_cast<int64_t>(data.NumRows(e));
    for (int64_t k = 0; k < kExtraKeys; ++k) free_[e].push_back(generated_[e] + k);
  }
}

bool TenantKeys::Claim(EntityId entity, DmlKind* kind, int64_t* key, Rng* rng) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t>* from = *kind == DmlKind::kInsert ? &free_[entity] : &present_[entity];
  if (from->empty()) {
    *kind = *kind == DmlKind::kInsert ? DmlKind::kDelete : DmlKind::kInsert;
    from = *kind == DmlKind::kInsert ? &free_[entity] : &present_[entity];
    if (from->empty()) return false;
  }
  const size_t i = rng->Index(from->size());
  *key = (*from)[i];
  (*from)[i] = from->back();
  from->pop_back();
  return true;
}

void TenantKeys::Release(EntityId entity, DmlKind kind, int64_t key, bool applied) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool now_present = (kind == DmlKind::kInsert) == applied;
  (now_present ? present_ : free_)[entity].push_back(key);
}

Fleet BuildFleet(const World& world, const FleetSpec& spec, uint64_t seed) {
  Fleet f;
  const pse::TpcwSchema& s = *world.schema;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t instances = std::min<size_t>(8, spec.tenants);
  for (size_t v = 0; v < instances; ++v) {
    f.instances.push_back(pse::GenerateTpcwData(s, spec.scale, rng.Next()));
  }

  // The shared trajectory: LAA over the five Fig 9 phases, memoized in the
  // fleet cache's cost cache.
  f.cache = std::make_unique<pse::SharedPlanCache>();
  const pse::LogicalStats stats = f.instances[0]->ComputeStats();
  const std::vector<std::vector<double>> phase_freqs = pse::Fig9IrregularFrequencies();
  pse::FleetScheduleInputs inputs;
  inputs.queries = &world.queries;
  inputs.phase_freqs = &phase_freqs;
  inputs.stats = &stats;
  auto schedule = pse::PlanFleetSchedule(s.source, s.object, inputs, f.cache->cost_cache());
  if (!schedule.ok()) Die("PlanFleetSchedule", schedule.status());
  f.scheduler = std::make_unique<pse::FleetScheduler>(std::move(*schedule), f.cache.get());
  const pse::FleetSchedule& trajectory = f.scheduler->schedule();

  for (size_t t = 0; t < spec.tenants; ++t) {
    const size_t inst = rng.Index(instances);
    pse::ShardOptions options;
    options.pool_pages = spec.pool_pages;
    auto shard =
        pse::TenantShard::Create(t, s.source, f.instances[inst].get(), std::move(options));
    if (!shard.ok()) Die("TenantShard::Create", shard.status());
    if (spec.park_across_steps) {
      for (size_t step = 0; step < t % (trajectory.steps() + 1); ++step) {
        Status st = (*shard)->AdvanceOneOp(trajectory, pse::MigrationOptions{});
        if (!st.ok()) Die("AdvanceOneOp", st);
      }
    }
    const bool audit = t % 16 == 0;
    f.instance_of.push_back(inst);
    f.audit.push_back(audit);
    f.keys.push_back(audit ? nullptr : std::make_unique<TenantKeys>(*f.instances[inst], world));
    f.scheduler->AddShard(std::move(*shard));
  }
  return f;
}

void RunClient(const World& world, Fleet* fleet, double write_fraction, uint64_t seed,
               const std::atomic<bool>& stop, const std::atomic<bool>& measuring,
               Tracer::Buffer* trace, ClientStats* out) {
  Rng rng(seed);
  Deck reads(world.read_weights);
  // Ten cards, as many of them writes as the mix asks for.
  Deck writes({10 * (1 - write_fraction), 10 * write_fraction});
  std::vector<double> table_weights;
  for (const World::WriteTable& t : world.write_tables) table_weights.push_back(t.weight);
  const std::vector<double> write_cum = Cumulative(table_weights);
  std::vector<size_t> writable;
  for (size_t t = 0; t < fleet->keys.size(); ++t) {
    if (fleet->keys[t] != nullptr) writable.push_back(t);
  }
  pse::FleetScheduler& scheduler = *fleet->scheduler;

  while (!stop.load(std::memory_order_relaxed)) {
    const bool counted = measuring.load(std::memory_order_relaxed);
    Tracer::Buffer* spans = counted ? trace : nullptr;  // warm-up goes untraced
    const bool write = writes.Draw(&rng) == 1 && !writable.empty();
    if (counted) ++out->attempted;
    const uint64_t stmt_id = spans != nullptr ? spans->NewId() : 0;
    Status status;
    uint32_t shape = 0;
    int64_t t0 = 0;
    int64_t t_end = 0;

    if (write) {
      const size_t tenant = writable[rng.Index(writable.size())];
      pse::TenantShard* shard = scheduler.shard(tenant);
      TenantKeys* keys = fleet->keys[tenant].get();
      const size_t table_idx = PickWeighted(write_cum, &rng);
      const pse::VersionTable& table = world.write_tables[table_idx].table;
      const double roll = rng.UniformDouble();
      DmlKind kind = roll < 0.6   ? DmlKind::kUpdate
                     : roll < 0.8 ? DmlKind::kInsert
                                  : DmlKind::kDelete;
      int64_t key = 0;
      if (kind == DmlKind::kUpdate || !keys->Claim(table.anchor, &kind, &key, &rng)) {
        kind = DmlKind::kUpdate;
        key = rng.UniformInt(0, keys->generated(table.anchor) - 1);
      }
      const pse::LogicalDml dml = MakeDml(world, table, kind, key, *keys, &rng);
      shape = static_cast<uint32_t>(world.queries.size() + 4 * table_idx) +
              static_cast<uint32_t>(kind);

      t0 = NowNs();
      int64_t t1 = 0, t2 = 0, t3 = 0;
      {
        std::shared_lock<pse::SharedMutex> latch(shard->db()->schema_latch());
        t1 = NowNs();
        std::shared_ptr<const pse::PhysicalSchema> schema = shard->serving()->Get();
        t2 = NowNs();
        status = shard->router()->Execute(dml, *schema);
        t3 = NowNs();
      }
      t_end = NowNs();
      if (kind != DmlKind::kUpdate) keys->Release(table.anchor, kind, key, status.ok());
      if (spans != nullptr) {
        spans->Add("latch", spans->NewId(), stmt_id, t0, t1);
        spans->Add("snapshot", spans->NewId(), stmt_id, t1, t2);
        spans->Add("dml", spans->NewId(), stmt_id, t2, t3);
      }
    } else {
      pse::TenantShard* shard = scheduler.shard(rng.Index(scheduler.size()));
      shape = static_cast<uint32_t>(reads.Draw(&rng));
      const pse::LogicalQuery& query = world.queries[shape].query;

      t0 = NowNs();
      int64_t t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
      {
        std::shared_lock<pse::SharedMutex> latch(shard->db()->schema_latch());
        t1 = NowNs();
        std::shared_ptr<const pse::PhysicalSchema> schema = shard->serving()->Get();
        const size_t step = shard->published_step();
        t2 = NowNs();
        pse::Result<pse::BoundQuery> bound = fleet->cache->GetOrRewrite(step, query, *schema);
        t3 = t4 = t5 = NowNs();
        if (bound.ok()) {
          pse::DatabaseCatalogView view(shard->db());
          pse::Result<pse::PlanPtr> plan = pse::PlanQuery(*bound, view);
          t4 = t5 = NowNs();
          if (plan.ok()) {
            // The rows die inside this scope, so freeing them counts as exec.
            status = pse::ExecutePlan(**plan, shard->db()).status();
            t5 = NowNs();
          } else {
            status = plan.status();
          }
        } else {
          status = bound.status();
        }
      }
      t_end = NowNs();
      if (spans != nullptr) {
        spans->Add("latch", spans->NewId(), stmt_id, t0, t1);
        spans->Add("snapshot", spans->NewId(), stmt_id, t1, t2);
        spans->Add("rewrite", spans->NewId(), stmt_id, t2, t3);
        if (t4 > t3) spans->Add("plan", spans->NewId(), stmt_id, t3, t4);
        if (t5 > t4) spans->Add("exec", spans->NewId(), stmt_id, t4, t5);
      }
    }
    if (spans != nullptr) spans->Add("stmt", stmt_id, 0, t0, t_end);

    if (!counted) continue;
    if (status.IsBindError()) {
      ++(write ? out->unservable_writes : out->unservable_reads);
    } else if (!status.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = status.ToString();
    } else {
      (write ? out->write_ms : out->read_ms).push_back(Ms(t0, t_end));
      (write ? out->write_shape : out->read_shape).push_back(shape);
    }
  }
}

std::vector<std::string> AuditTenants(const World& world, Fleet* fleet,
                                      ExpectedAnswers* answers) {
  std::vector<std::string> mismatches;
  const pse::PhysicalSchema& object = world.schema->object;
  ExpectedAnswers& expected = *answers;
  expected.resize(fleet->instances.size());
  for (size_t t = 0; t < fleet->audit.size(); ++t) {
    if (!fleet->audit[t]) continue;
    const size_t inst = fleet->instance_of[t];
    if (expected[inst].empty()) {
      pse::Database fresh(4096);
      Status s = fleet->instances[inst]->Materialize(&fresh, object);
      if (!s.ok()) Die("object-schema materialization", s);
      for (const pse::WorkloadQuery& wq : world.queries) {
        auto rows = RunSorted(&fresh, object, wq.query);
        if (!rows.ok()) Die("object-schema query " + wq.query.name, rows.status());
        expected[inst].push_back(std::move(*rows));
      }
    }
    pse::TenantShard* shard = fleet->scheduler->shard(t);
    const pse::PhysicalSchema current = shard->CurrentSchema();
    for (size_t q = 0; q < world.queries.size(); ++q) {
      auto rows = RunSorted(shard->db(), current, world.queries[q].query);
      if (!rows.ok()) {
        if (rows.status().IsBindError()) continue;  // not servable at this step
        mismatches.push_back("tenant " + std::to_string(t) + " " + world.queries[q].query.name +
                             ": " + rows.status().ToString());
      } else if (!SameRows(*rows, expected[inst][q])) {
        mismatches.push_back("tenant " + std::to_string(t) + " " + world.queries[q].query.name +
                             ": " + std::to_string(rows->size()) + " rows, object schema gives " +
                             std::to_string(expected[inst][q].size()));
      }
    }
  }
  return mismatches;
}

}  // namespace psebench

// Shared plumbing for the figure-reproduction benches, and the one writer
// of the BENCH_*.json files.
#pragma once

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/simulation.h"
#include "tpcw/datagen.h"
#include "tpcw/queries.h"
#include "tpcw/schema.h"
#include "tpcw/workloads.h"

namespace pse {
namespace bench {

/// Everything one experiment instance needs.
struct TpcwInstance {
  std::unique_ptr<TpcwSchema> schema;
  std::unique_ptr<LogicalDatabase> data;
  std::vector<WorkloadQuery> queries;
  TpcwScale scale;
};

inline TpcwInstance MakeInstance(const std::string& scale_name, uint64_t seed = 42) {
  TpcwInstance inst;
  inst.schema = BuildTpcwSchema();
  inst.scale = ResolveScale(scale_name);
  inst.data = GenerateTpcwData(*inst.schema, inst.scale, seed);
  auto workload = BuildTpcwWorkload(*inst.schema);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload build failed: %s\n", workload.status().ToString().c_str());
    std::exit(1);
  }
  inst.queries = std::move(*workload);
  return inst;
}

inline SimulationConfig DefaultConfig(PlannerKind planner) {
  SimulationConfig config;
  config.planner = planner;
  config.buffer_pool_pages = 1024;  // deliberately smaller than the data
  config.gaa.ga.population_size = 32;
  config.gaa.ga.generations = 40;
  config.gaa.ga.stall_generations = 12;
  return config;
}

/// Prints the per-phase comparison table used by Fig 8(a)-(d).
inline void PrintPhaseCostTable(const SituationReport& opt, const SituationReport& pro,
                                const SituationReport& obj) {
  std::printf("%-8s %14s %14s %14s %9s %9s\n", "Phase", "Opt-Schema", "Pro-Schema",
              "Obj-Schema", "Pro/Opt", "Obj/Pro");
  for (size_t p = 0; p < opt.phases.size(); ++p) {
    double o = opt.phases[p].query_cost;
    double pr = pro.phases[p].query_cost;
    double ob = obj.phases[p].query_cost;
    std::printf("P%zu-P%zu   %14.0f %14.0f %14.0f %9.2f %9.2f\n", p, p + 1, o, pr, ob,
                o > 0 ? pr / o : 0.0, pr > 0 ? ob / pr : 0.0);
  }
  double o = opt.OverallCost(), pr = pro.OverallCost(), ob = obj.OverallCost();
  std::printf("%-8s %14.0f %14.0f %14.0f %9.2f %9.2f\n", "Overall", o, pr, ob,
              o > 0 ? pr / o : 0.0, pr > 0 ? ob / pr : 0.0);
  std::printf("Pro-Schema migration I/O: %.0f pages (incl. final completion %.0f)\n",
              pro.TotalMigrationIo(), pro.final_migration_io);
  std::printf("Gain of Pro over Obj (the paper's 'existing system'): %.0f%%\n",
              pr > 0 ? (ob / pr - 1.0) * 100.0 : 0.0);
}

/// The median and quartiles of a sample, and its size. The quartiles are
/// Python's statistics.quantiles(v, n=4), exclusive method, as
/// benchmark/src/compare.cc computes them.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  size_t n = 0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  s.median = v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  if (v.size() == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const long n = static_cast<long>(v.size());
  auto cut = [&](long i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// \brief The one writer of the BENCH_*.json files.
///
/// A document is {"bench": NAME, SECTION: [ROW, ...], ...}, sections in the
/// order first used; a row is an object of fields in the order first set.
/// A bench measures its sections several times, and setting a field again
/// is that field's next repeat:
///   - a value (a count, a text, a flag, or null for a run that was
///     skipped) must read the same on every repeat; one that differs is
///     named on stderr and makes ok() false;
///   - a sample (a timing, or a rate computed from one) keeps every
///     repeat's reading and is written as {"median", "q1", "q3", "n"}.
class BenchJson {
 public:
  class Row {
   public:
    void Count(const std::string& key, double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      Value(key, buf);
    }
    void Text(const std::string& key, const std::string& v) { Value(key, "\"" + v + "\""); }
    void Flag(const std::string& key, bool v) { Value(key, v ? "true" : "false"); }
    void Null(const std::string& key) { Value(key, "null"); }
    void Sample(const std::string& key, double v) {
      Find(key, /*sample=*/true)->samples.push_back(v);
    }

   private:
    friend class BenchJson;
    struct Field {
      std::string key;
      bool sample = false;
      std::string value;  ///< the JSON text of a value
      std::vector<double> samples;
    };

    /// The field `key`, added as a sample or a value on first use.
    Field* Find(const std::string& key, bool sample) {
      for (Field& f : fields_) {
        if (f.key == key) return &f;
      }
      fields_.push_back(Field{key, sample, "", {}});
      return &fields_.back();
    }

    void Value(const std::string& key, const std::string& json) {
      Field* f = Find(key, /*sample=*/false);
      if (f->value.empty()) {
        f->value = json;
      } else if (f->value != json) {
        std::fprintf(stderr, "%s \"%s\" read %s on one repeat and %s on another\n",
                     where_.c_str(), key.c_str(), f->value.c_str(), json.c_str());
        ++mismatches_;
      }
    }

    std::string where_;  ///< "section[index]", for the mismatch message
    std::vector<Field> fields_;  ///< a value's text is never empty once set
    size_t mismatches_ = 0;
  };

  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  /// Row `index` of `section`, created (with any rows before it) on first
  /// use. The reference stays valid for the document's lifetime.
  Row& At(const std::string& section, size_t index) {
    auto it = std::find_if(sections_.begin(), sections_.end(),
                           [&](const Section& s) { return s.name == section; });
    if (it == sections_.end()) it = sections_.insert(sections_.end(), Section{section, {}});
    while (it->rows.size() <= index) {
      it->rows.emplace_back();
      it->rows.back().where_ = section + "[" + std::to_string(it->rows.size() - 1) + "]";
    }
    return it->rows[index];
  }

  /// True when every value read the same on every repeat.
  bool ok() const {
    for (const Section& s : sections_) {
      for (const Row& r : s.rows) {
        if (r.mismatches_ > 0) return false;
      }
    }
    return true;
  }

  /// Writes the document to `path`; false when the file cannot be written.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", bench_.c_str());
    for (const Section& s : sections_) {
      std::fprintf(f, ",\n  \"%s\": [", s.name.c_str());
      for (size_t i = 0; i < s.rows.size(); ++i) {
        std::fprintf(f, "%s\n    {", i > 0 ? "," : "");
        const std::vector<Row::Field>& fields = s.rows[i].fields_;
        for (size_t k = 0; k < fields.size(); ++k) {
          const Row::Field& field = fields[k];
          std::fprintf(f, "%s\"%s\": ", k > 0 ? ", " : "", field.key.c_str());
          if (!field.sample) {
            std::fprintf(f, "%s", field.value.c_str());
            continue;
          }
          const Summary sum = Summarize(field.samples);
          std::fprintf(f, "{\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f, \"n\": %zu}",
                       sum.median, sum.q1, sum.q3, sum.n);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "\n  ]");
    }
    std::fprintf(f, "\n}\n");
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Section {
    std::string name;
    std::deque<Row> rows;
  };

  std::string bench_;
  std::deque<Section> sections_;
};

}  // namespace bench
}  // namespace pse

// compare: judges two sets of benchmark runs metric by metric.
//
//   compare [--benchmark PATH] BASE_DIR NEW_DIR
//
// Each directory holds one file per run: the run's standard output, whose
// last line is its JSON result and whose other lines start with the
// workload name (run.sh writes them). For every workload and every
// end-to-end metric of BENCHMARK.json it prints each side's median and
// quartiles (Python's statistics.quantiles, exclusive method) and a verdict:
//
//   improved    NEW wins at least nine tenths of the run pairs (runs paired
//               in file-name order, ties counting for neither) and the
//               medians differ by more than BASE's quartile distance;
//   unresolved  the quartile distance of either side, as a share of its
//               median, exceeds the metric's bound, and not every NEW run
//               beats every BASE run;
//   worse       NEW's median is worse than BASE's by more than the bound;
//   same        none of the above.
//
// Exits 1 when any verdict is worse or unresolved, 2 on bad input.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// A JSON value: just enough of JSON for BENCHMARK.json and result lines.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        else if (c == 't') c = '\t';
        else if (c != '"' && c != '\\' && c != '/') return false;  // \uXXXX is not needed here
      }
      out->push_back(c);
    }
    return pos_++ < s_.size();
  }
  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size() || ++depth_ > 64) return false;
    const char c = s_[pos_];
    bool ok = false;
    if (c == '{') {
      out->kind = Json::Kind::kObject;
      ++pos_;
      ok = Eat('}');
      while (!ok) {
        std::string key;
        Json v;
        if (!String(&key) || !Eat(':') || !Value(&v)) return false;
        out->object[key] = std::move(v);
        if (Eat('}')) ok = true;
        else if (!Eat(',')) return false;
      }
    } else if (c == '[') {
      out->kind = Json::Kind::kArray;
      ++pos_;
      ok = Eat(']');
      while (!ok) {
        Json v;
        if (!Value(&v)) return false;
        out->array.push_back(std::move(v));
        if (Eat(']')) ok = true;
        else if (!Eat(',')) return false;
      }
    } else if (c == '"') {
      out->kind = Json::Kind::kString;
      ok = String(&out->string);
    } else if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = ok = true;
    } else if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      ok = true;
    } else if (Literal("null")) {
      ok = true;
    } else {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      out->kind = Json::Kind::kNumber;
      out->number = std::strtod(begin, &end);
      ok = end != begin;
      pos_ += static_cast<size_t>(end - begin);
    }
    --depth_;
    return ok;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "compare: %s\n", why.c_str());
  std::exit(2);
}

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;
};

std::vector<MetricSpec> ReadEndToEnd(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  Json root;
  if (!JsonParser(text.str()).Parse(&root)) Die(path + " is not valid JSON");
  const Json* list = root.Get("end_to_end");
  if (list == nullptr || list->kind != Json::Kind::kArray) Die(path + " has no end_to_end list");
  std::vector<MetricSpec> specs;
  for (const Json& m : list->array) {
    const Json* name = m.Get("name");
    const Json* unit = m.Get("unit");
    const Json* better = m.Get("better");
    const Json* bound = m.Get("bound");
    if (name == nullptr || unit == nullptr || better == nullptr || bound == nullptr) {
      Die(path + ": an end_to_end entry lacks name, unit, better or bound");
    }
    specs.push_back({name->string, unit->string, better->string == "higher", bound->number});
  }
  return specs;
}

/// workload -> metric -> values, in file-name order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

Runs ReadRuns(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  if (ec) Die("cannot list " + dir);
  std::sort(files.begin(), files.end());
  Runs runs;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
    if (lines.size() < 2) continue;  // not a run's output
    Json result;
    if (!JsonParser(lines.back()).Parse(&result) || result.Get("metrics") == nullptr) continue;
    const Json* correct = result.Get("correct");
    if (correct == nullptr || !correct->boolean) {
      std::fprintf(stderr, "compare: skipping %s (correct is not true)\n", file.c_str());
      continue;
    }
    const std::string& metric_line = lines[lines.size() - 2];
    const std::string workload = metric_line.substr(0, metric_line.find(' '));
    for (const auto& [name, m] : result.Get("metrics")->object) {
      const Json* value = m.Get("value");
      if (value != nullptr) runs[workload][name].push_back(value->number);
    }
  }
  return runs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Python's statistics.quantiles(v, n=4) (exclusive method): {q1, q3}.
std::pair<double, double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  auto cut = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  return {cut(1), cut(3)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) Die("usage: compare [--benchmark PATH] BASE_DIR NEW_DIR");
  const std::vector<MetricSpec> specs = ReadEndToEnd(benchmark);
  const Runs base = ReadRuns(dirs[0]);
  const Runs next = ReadRuns(dirs[1]);

  bool bad = false;
  std::printf("%-14s %-12s %-34s %-34s %8s  %s\n", "workload", "metric", "base median [q1, q3]",
              "new median [q1, q3]", "change", "verdict");
  for (const auto& [workload, base_metrics] : base) {
    auto next_workload = next.find(workload);
    for (const MetricSpec& spec : specs) {
      auto b_it = base_metrics.find(spec.name);
      if (next_workload == next.end() || b_it == base_metrics.end()) continue;
      auto n_it = next_workload->second.find(spec.name);
      if (n_it == next_workload->second.end()) continue;
      const std::vector<double>& b = b_it->second;
      const std::vector<double>& n = n_it->second;
      if (b.size() < 2 || n.size() < 2) {
        std::printf("%-14s %-12s needs at least two runs a side\n", workload.c_str(),
                    spec.name.c_str());
        bad = true;
        continue;
      }
      const double bm = Median(b), nm = Median(n);
      const auto [b1, b3] = Quartiles(b);
      const auto [n1, n3] = Quartiles(n);
      // Signed change, positive = better.
      auto gain = [&](double from, double to) {
        return spec.higher_is_better ? to - from : from - to;
      };
      size_t wins = 0;
      const size_t pairs = std::min(b.size(), n.size());
      for (size_t i = 0; i < pairs; ++i) wins += gain(b[i], n[i]) > 0 ? 1 : 0;
      const auto [b_lo, b_hi] = std::minmax_element(b.begin(), b.end());
      const auto [n_lo, n_hi] = std::minmax_element(n.begin(), n.end());
      const bool all_better = spec.higher_is_better ? *n_lo > *b_hi : *n_hi < *b_lo;
      const double spread = std::max((b3 - b1) / std::abs(bm), (n3 - n1) / std::abs(nm));
      const char* verdict = "same";
      if (10 * wins >= 9 * pairs && gain(bm, nm) > b3 - b1) {
        verdict = "improved";
      } else if (spread > spec.bound && !all_better) {
        verdict = "unresolved";
      } else if (-gain(bm, nm) > spec.bound * std::abs(bm)) {
        verdict = "worse";
      }
      bad = bad || verdict[0] == 'u' || verdict[0] == 'w';
      char bs[64], ns[64];
      std::snprintf(bs, sizeof(bs), "%.5g [%.5g, %.5g]", bm, b1, b3);
      std::snprintf(ns, sizeof(ns), "%.5g [%.5g, %.5g]", nm, n1, n3);
      std::printf("%-14s %-12s %-34s %-34s %+7.1f%%  %s\n", workload.c_str(), spec.name.c_str(), bs,
                  ns, 100.0 * (nm - bm) / std::abs(bm), verdict);
    }
  }
  return bad ? 1 : 0;
}

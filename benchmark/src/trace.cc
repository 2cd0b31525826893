#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace psebench {

Tracer::Buffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(static_cast<uint32_t>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans().begin(), b->spans().end());
  return all;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans, int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts = static_cast<double>(s.start_ns - origin_ns) / 1e3;
    if (s.instant) {
      std::fprintf(f, "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f", s.name, ts);
    } else {
      std::fprintf(f, "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f", s.name, ts,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    std::fprintf(f,
                 ", \"pid\": 1, \"tid\": %u, \"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.tid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, SpanTotals>> SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  std::unordered_map<uint64_t, int64_t> covered_ns;
  for (const Span& s : spans) {
    if (s.parent == 0 || s.instant) continue;
    auto p = by_id.find(s.parent);
    if (p == by_id.end()) continue;
    const int64_t lo = std::max(s.start_ns, p->second->start_ns);
    const int64_t hi = std::min(s.end_ns, p->second->end_ns);
    if (hi > lo) covered_ns[s.parent] += hi - lo;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    if (s.instant) continue;
    SpanTotals& t = totals[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    auto c = covered_ns.find(s.id);
    const int64_t self = dur - (c == covered_ns.end() ? 0 : std::min(c->second, dur));
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(self) / 1e6;
    t.durations_ms.push_back(static_cast<double>(dur) / 1e6);
  }
  return {totals.begin(), totals.end()};
}

}  // namespace psebench

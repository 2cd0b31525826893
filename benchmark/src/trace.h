// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the library from the benchmark's own
// code, never from inside the library. Every thread appends to its own
// buffer, so recording takes no lock; buffers are merged after all threads
// have been joined. A disabled tracer records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed interval (or an instant when start == end). `name` points to a
/// string literal. `parent` is 0 for a root span.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
  bool instant = false;
};

class Tracer {
 public:
  /// Per-thread span list. Ids are unique across buffers: the buffer's
  /// thread index sits in the top bits.
  class Buffer {
   public:
    explicit Buffer(uint32_t tid) : tid_(tid) { spans_.reserve(1 << 14); }
    uint64_t NewId() { return (static_cast<uint64_t>(tid_ + 1) << 40) | ++next_; }
    void Add(const char* name, uint64_t id, uint64_t parent, int64_t start_ns, int64_t end_ns) {
      spans_.push_back(Span{name, id, parent, start_ns, end_ns, tid_, false});
    }
    void Instant(const char* name, uint64_t parent, int64_t at_ns) {
      spans_.push_back(Span{name, NewId(), parent, at_ns, at_ns, tid_, true});
    }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    uint32_t tid_;
    uint64_t next_ = 0;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh buffer owned by the tracer; the caller keeps it for the life of
  /// one thread. Null when tracing is off.
  Buffer* NewBuffer();

  /// All spans of all buffers. Call only after every recording thread ended.
  std::vector<Span> Collect() const;

 private:
  bool enabled_;
  std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Writes `spans` as Chrome trace-event JSON (ph "X" spans, ph "i" instants;
/// id and parent in args). Timestamps are microseconds since `origin_ns`.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans, int64_t origin_ns);

/// Duration and self time (duration minus the time its children cover),
/// summed over every span of one name.
struct SpanTotals {
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> durations_ms;
};

/// Per-name totals over `spans`. The time a span's children cover is the sum
/// of their durations, clipped to the span: exact when the children do not
/// overlap, as for statements and planning passes. A `fleet.run` span's
/// operators run on parallel lanes, so its self time means nothing.
std::vector<std::pair<std::string, SpanTotals>> SummarizeSpans(const std::vector<Span>& spans);

}  // namespace psebench

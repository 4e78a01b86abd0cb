#ifndef FAIRRANK_PERFBENCH_SPANS_H_
#define FAIRRANK_PERFBENCH_SPANS_H_

// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into each layer's public functions, kept in memory and written out when
// the run ends. The program itself is not instrumented by these.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Wall-clock timer at nanosecond resolution.
class Timer {
 public:
  double Seconds() const { return (NowNs() - start_ns_) * 1e-9; }
  double Millis() const { return (NowNs() - start_ns_) * 1e-6; }

 private:
  int64_t start_ns_ = NowNs();
};

/// One timed call: [start_ns, end_ns) on the monotonic clock; `parent` is
/// the index of the enclosing span, -1 for a root.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// Thread-safe in-memory span store. Span names start with the layer they
/// time ("fairness.search.balanced" belongs to layer fairness.search).
class SpanRecorder {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  std::vector<Span> Snapshot() const;
  /// Writes every span as one JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder makes it a no-op, so one code path serves
/// the traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// The layers spans are attributed to, from src/.
const std::vector<std::string>& Layers();

struct LayerTime {
  double busy_s = 0.0;  ///< Time inside the layer's outermost spans.
  double self_s = 0.0;  ///< Span time minus the time of direct child spans.
};

/// Busy and self time per layer (every entry of Layers() is present).
std::map<std::string, LayerTime> SummarizeLayers(
    const std::vector<Span>& spans);

/// Total duration of spans named exactly `name`.
double SpanSeconds(const std::vector<Span>& spans, const std::string& name);

/// Seconds of wall time covered by at least one layer span.
double CoveredSeconds(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // FAIRRANK_PERFBENCH_SPANS_H_

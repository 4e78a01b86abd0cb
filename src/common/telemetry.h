#ifndef FAIRRANK_COMMON_TELEMETRY_H_
#define FAIRRANK_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/thread_annotations.h"
#include "stats/quantile_sketch.h"

namespace fairrank {

/// Monotonic counter; relaxed atomics (each sample is independent, only the
/// eventual total matters), so concurrent Increment is TSan-clean and
/// wait-free.
class MetricCounter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Thread-safe latency accumulator: a GK quantile sketch plus count/sum/max,
/// rendered as a Prometheus summary. This is THE latency type — fairauditd's
/// per-endpoint latencies (`/stats` p50/p99 and the `/metrics` summaries)
/// and the pipeline's registry histograms all read quantiles off it, so
/// p50/p99 come from a single code path (the same GK sketch that backs EMD
/// elsewhere). Observations are expected at per-request granularity, not
/// per-EMD — keep hot loops on counters.
class MetricHistogram {
 public:
  /// `epsilon` is the GK rank-error bound; 0.005 keeps p99 of 10k samples
  /// within ±50 ranks.
  explicit MetricHistogram(double epsilon = 0.005);

  void Observe(double seconds) FAIRRANK_EXCLUDES(mutex_);

  struct Snapshot {
    uint64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    double p50_seconds = 0.0;  ///< 0 when empty.
    double p90_seconds = 0.0;
    double p99_seconds = 0.0;
  };
  Snapshot TakeSnapshot() const FAIRRANK_EXCLUDES(mutex_);

 private:
  mutable std::mutex mutex_;
  GkSketch sketch_ FAIRRANK_GUARDED_BY(mutex_);
  double sum_seconds_ FAIRRANK_GUARDED_BY(mutex_) = 0.0;
  double max_seconds_ FAIRRANK_GUARDED_BY(mutex_) = 0.0;
};

/// The `# TYPE` of a metric family.
enum class MetricType { kCounter, kGauge, kSummary };

/// A family's one label and this child's value of it, rendered as
/// `{endpoint="/audit"}`. The default (empty name) is an unlabeled family's
/// only child. Values are program constants, never request input.
struct MetricLabel {
  std::string name;
  std::string value;
};

/// Metrics registry: named families, each with one HELP/TYPE header and one
/// child per label value. Get* registers on first use and returns a stable
/// pointer, so call sites cache it and updates are lock-free counter bumps
/// ("static registration"):
///
///   static MetricCounter* audits = MetricsRegistry::Global().GetCounter(
///       "fairrank_audits_total", "Completed audits");
///   audits->Increment();
///
/// A family's first registration fixes its type, help and label name.
/// Names must pass IsValidMetricName (snake_case, `fairrank_` prefix, a
/// recognized unit/kind suffix) — enforced by the metrics-naming lint rule
/// at review time. Snapshot reads every value once; RenderPrometheus
/// renders it as the text exposition format.
class MetricsRegistry {
 public:
  /// The process registry: the library pipeline's metrics. fairauditd
  /// serves it on `/metrics` ahead of its own per-server registry.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricCounter* GetCounter(const std::string& name, const std::string& help,
                            const MetricLabel& label = {})
      FAIRRANK_EXCLUDES(mutex_);
  MetricHistogram* GetHistogram(const std::string& name,
                                const std::string& help,
                                const MetricLabel& label = {})
      FAIRRANK_EXCLUDES(mutex_);

  /// Registers family `name` with no child yet, so its HELP/TYPE header
  /// renders before its first label value is used. `label` is the label
  /// name.
  void AddFamily(const std::string& name, const std::string& help,
                 MetricType type, const std::string& label)
      FAIRRANK_EXCLUDES(mutex_);

  /// Registers a counter or gauge child whose value is `read()` at every
  /// snapshot — gauges are always values another object owns (in-flight
  /// requests, queue depth, cache occupancy), read rather than mirrored.
  /// `read` is called without the registry lock and must stay callable for
  /// as long as the registry is read.
  void AddCallback(const std::string& name, const std::string& help,
                   MetricType type, const MetricLabel& label,
                   std::function<int64_t()> read) FAIRRANK_EXCLUDES(mutex_);

  /// One child's value at snapshot time.
  struct Sample {
    std::string label_value;  ///< Empty for an unlabeled family.
    int64_t value = 0;        ///< Counters and callbacks.
    MetricHistogram::Snapshot summary;  ///< Summaries.
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::string label;            ///< Label name; empty when unlabeled.
    std::vector<Sample> samples;  ///< Sorted by label value.

    /// The child with `label_value`, or null.
    const Sample* Find(const std::string& label_value) const;
  };

  /// Every family by name, each value read once.
  std::map<std::string, Family> Snapshot() const FAIRRANK_EXCLUDES(mutex_);

  /// Prometheus text exposition of Snapshot(), sorted by family name and
  /// then label value. Summaries render quantiles 0.5 / 0.9 / 0.99 (when
  /// non-empty, label first: `{endpoint="/audit",quantile="0.5"}`) plus
  /// _sum / _count.
  std::string RenderPrometheus() const FAIRRANK_EXCLUDES(mutex_);

  /// True for `fairrank_`-prefixed snake_case names carrying a recognized
  /// unit/kind suffix (_total, _seconds, _bytes, _count, _ratio, _info).
  static bool IsValidMetricName(const std::string& name);

 private:
  using Child =
      std::variant<MetricCounter, MetricHistogram, std::function<int64_t()>>;
  struct Registration {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::string label;
    std::map<std::string, Child> children;  ///< By label value.
  };

  /// Family `name`, registered with `help`, `type` and `label` on first use.
  Registration& Register(const std::string& name, const std::string& help,
                         MetricType type, const std::string& label)
      FAIRRANK_REQUIRES(mutex_);

  /// The child of `label` in family `name`, constructed from `args` on
  /// first use.
  template <typename T, typename... Args>
  T* GetOrCreate(const std::string& name, const std::string& help,
                 MetricType type, const MetricLabel& label, Args&&... args)
      FAIRRANK_EXCLUDES(mutex_);

  mutable std::mutex mutex_;
  std::map<std::string, Registration> families_ FAIRRANK_GUARDED_BY(mutex_);
};

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_TELEMETRY_H_

#ifndef FAIRRANK_SERVER_STATS_H_
#define FAIRRANK_SERVER_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/budget.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "server/admission.h"
#include "server/response_cache.h"

namespace fairrank {

/// Aggregated observability for fairauditd, exposed at /stats and flushed
/// once more at shutdown. Everything here is monotonic over the life of the
/// process; instantaneous gauges (in-flight, queue depth, budget headroom)
/// are read from their owners at snapshot time rather than mirrored.
/// Thread-safe; RecordRequest is on every request's path, so the critical
/// section is a few counter bumps.
class ServerStats {
 public:
  /// A finished request on `endpoint` ("/audit", "/suite", "/healthz",
  /// "/stats"), its HTTP status, wall seconds spent, and whether the body
  /// carried truncated results.
  void RecordRequest(const std::string& endpoint, int status, double seconds,
                     bool truncated) FAIRRANK_EXCLUDES(mutex_);

  /// A request shed before any work ran, keyed by admission verdict
  /// ("draining", "budget_exhausted", "overloaded") or by the listener's
  /// own "queue_full".
  void RecordShed(const std::string& reason) FAIRRANK_EXCLUDES(mutex_);

  /// A request admitted past the gate (it may still fail or truncate).
  void RecordAccepted() FAIRRANK_EXCLUDES(mutex_);

  /// A connection whose bytes never parsed into a routable request.
  void RecordParseError() FAIRRANK_EXCLUDES(mutex_);

  /// A request served on an already-used kept-alive connection (the
  /// second and later requests of one fd) — the saved TCP setups.
  void RecordConnectionReuse() FAIRRANK_EXCLUDES(mutex_);

  /// JSON snapshot. `process_budget` may be null; `in_flight`,
  /// `queue_depth`, `draining`, and `response_cache` are the live gauges
  /// sampled by the caller who owns them.
  std::string ToJson(const ResourceBudget* process_budget, int in_flight,
                     bool draining, size_t queue_depth,
                     const ResponseCacheStats& response_cache) const
      FAIRRANK_EXCLUDES(mutex_);

  /// Prometheus text exposition of the same counters (and the same latency
  /// sketches — `/stats` p50/p99 and `/metrics` quantiles are one
  /// GK-sketch read apart, never two implementations). Serves the server
  /// half of GET /metrics; the process-registry half comes from
  /// MetricsRegistry::RenderPrometheus.
  std::string ToPrometheus(const ResourceBudget* process_budget, int in_flight,
                           bool draining, size_t queue_depth,
                           const ResponseCacheStats& response_cache) const
      FAIRRANK_EXCLUDES(mutex_);

 private:
  struct EndpointStats {
    uint64_t count = 0;
    uint64_t errors = 0;     ///< Responses with status >= 400.
    uint64_t truncated = 0;  ///< 200s that carried truncated: true.
    double total_seconds = 0;
    double max_seconds = 0;
    /// GK-backed per-endpoint latency (seconds); p50/p99 in both /stats
    /// and /metrics are read off this one sketch (see common/telemetry.h).
    LatencySketch latency;
  };

  mutable std::mutex mutex_;
  uint64_t accepted_ FAIRRANK_GUARDED_BY(mutex_) = 0;
  uint64_t parse_errors_ FAIRRANK_GUARDED_BY(mutex_) = 0;
  uint64_t keep_alive_reuses_ FAIRRANK_GUARDED_BY(mutex_) = 0;
  std::map<std::string, uint64_t> shed_ FAIRRANK_GUARDED_BY(mutex_);
  std::map<std::string, EndpointStats> endpoints_ FAIRRANK_GUARDED_BY(mutex_);
};

}  // namespace fairrank

#endif  // FAIRRANK_SERVER_STATS_H_

#ifndef FAIRRANK_SERVER_SERVER_H_
#define FAIRRANK_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/budget.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "data/table.h"
#include "server/admission.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/queue.h"
#include "server/response_cache.h"

namespace fairrank {

/// Configuration of a fairauditd instance.
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is port() after Start().
  /// Worker threads serving requests; <= 0 picks HardwareThreads().
  int num_workers = 4;
  /// Concurrent /audit//suite requests past admission; 0 = num_workers.
  int max_inflight_audits = 0;
  /// Accepted connections waiting for a worker; beyond this the listener
  /// sheds with a canned 503 ("queue_full").
  size_t queue_capacity = 16;
  /// Server-wide per-request wall-clock ceiling (see ServerEnv).
  int64_t request_timeout_ceiling_ms = 10000;
  /// Default per-request timeout when the client sends none; 0 = ceiling
  /// only.
  int64_t default_timeout_ms = 0;
  /// Process-level aggregate budgets across ALL requests ever served
  /// (0 = unlimited). When the node budget runs dry the server stops
  /// admitting audit work (503 + retry_after_ms) rather than crashing or
  /// queueing.
  uint64_t max_total_nodes = 0;
  uint64_t max_total_memory_mb = 0;
  /// Backoff hint on every load-shedding response.
  int64_t retry_after_ms = 250;
  /// How long the drain sequence waits for in-flight requests before
  /// cancelling them cooperatively.
  int64_t drain_grace_ms = 2000;
  /// Per-connection socket read/write inactivity timeout.
  int64_t io_timeout_ms = 5000;
  /// HTTP/1.1 keep-alive: serve multiple requests per connection. Off
  /// forces `Connection: close` after every response.
  bool keep_alive = true;
  /// How long a kept-alive connection may sit idle between requests before
  /// the worker closes it (composed with io_timeout_ms via
  /// Deadline::Earlier; a kept-alive idle connection holds a worker, so
  /// this also bounds worker occupancy). <= 0 falls back to io_timeout_ms.
  int64_t keep_alive_idle_ms = 5000;
  /// Requests served on one connection before the server closes it
  /// (guards a single client monopolizing a worker forever); <= 0 is
  /// unlimited.
  int max_requests_per_connection = 100;
  /// Byte cap of the whole-response cache over (dataset, canonicalized
  /// flags); 0 disables caching. Cache memory is charged to the
  /// process-level memory budget.
  uint64_t response_cache_mb = 8;
  /// Upper bound on the time the *listener* spends pushing a canned shed
  /// response to a slow client — task 0 must return to accepting, so this
  /// is much shorter than io_timeout_ms.
  int64_t shed_send_timeout_ms = 250;
  /// Evaluator-thread cap per request.
  int max_request_threads = 1;
  /// Any /audit or /suite request slower than this many milliseconds gets
  /// its span tree dumped through log_sink. > 0 also turns on per-request
  /// tracing for those endpoints (a TraceContext per request); 0 leaves
  /// requests untraced — the pipeline then pays a single null-pointer
  /// check per instrumentation site.
  int64_t slow_request_ms = 0;
  /// One structured JSON line per finished request through log_sink
  /// (request_id, method, path, status, duration_ms, trace_id).
  bool access_log = false;
  /// Sink for access-log lines and slow-request span dumps. The server
  /// never touches stdio itself; fairauditd wires this to stdout. Called
  /// from worker threads, so it must be thread-safe. Empty = lines are
  /// dropped.
  std::function<void(const std::string&)> log_sink;
  HttpSizeLimits size_limits;
  /// Polled by the listener between accepts; returning true triggers the
  /// same graceful drain as RequestShutdown(). Lets main() wire the process
  /// signal latch (common/shutdown.h) in without the server owning signal
  /// handling. May be empty.
  std::function<bool()> external_shutdown;
};

/// A long-running audit service over immutable, load-once tables.
///
/// Lifecycle:
///   FairAuditServer server(std::move(tables), options);
///   FAIRRANK_RETURN_NOT_OK(server.Start());   // binds; port() now valid
///   Status done = server.Serve();             // blocks until drained
///
/// Serve() runs a listener task plus num_workers worker tasks on one
/// ParallelForEach pool (the repo's only sanctioned thread source). The
/// listener accepts, tags connections with arrival order, and hands fds to
/// a BoundedQueue; workers pop, parse, route, and answer. Admission control
/// (AdmissionController) gates /audit and /suite; /healthz, /stats, and
/// /metrics are always served, even while draining.
///
/// Fault containment: every request runs under GuardRequest (see
/// handlers.cc) — bad input, fault-injected library failures, and budget
/// trips produce structured JSON errors or truncated bodies on that one
/// connection; the process and concurrent requests are unaffected.
///
/// Drain: RequestShutdown() (or external_shutdown returning true, wired to
/// SIGINT/SIGTERM by fairauditd) stops accepting, waits up to
/// drain_grace_ms for in-flight requests, then requests cooperative
/// cancellation so stragglers return truncated best-so-far answers; Serve()
/// returns OK after the last worker exits. Metrics survive for a final
/// StatsJson() flush.
///
/// Observability: each server owns one MetricsRegistry (not Global(), so
/// servers sharing a process keep separate counts). /metrics renders the
/// process registry and then this one; /stats is a JSON rendering of the
/// same registry snapshot.
class FairAuditServer {
 public:
  /// `tables` are owned by the server and must be non-null; `default_name`
  /// must be a key of `tables`.
  FairAuditServer(std::map<std::string, std::unique_ptr<Table>> tables,
                  std::string default_name, ServerOptions options);
  ~FairAuditServer();

  FairAuditServer(const FairAuditServer&) = delete;
  FairAuditServer& operator=(const FairAuditServer&) = delete;

  /// Binds and listens. After OK, port() returns the bound port (resolves
  /// an ephemeral port 0 request).
  Status Start();

  int port() const { return port_; }

  /// Serves until drained; blocks the calling thread. Call Start() first.
  Status Serve();

  /// Starts the graceful drain from any thread. Idempotent.
  void RequestShutdown();

  /// True once a drain has been requested.
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Snapshot of the /stats body, also valid after Serve() returns (the
  /// final flush fairauditd prints on exit).
  std::string StatsJson() const;

 private:
  /// Label values of the per-endpoint families. Any other path counts as
  /// the last, "(other)", so a path-scanning client cannot grow them.
  static constexpr const char* kEndpoints[] = {
      "/audit", "/suite", "/healthz", "/stats", "/metrics", "(other)"};
  /// Label values of fairrank_http_shed_total besides "total": the
  /// listener's own two reasons, then the admission verdicts.
  static constexpr const char* kShedReasons[] = {
      "queue_full", "fd_setup_failed", "draining", "budget_exhausted",
      "overloaded"};

  /// Registry children of one endpoint, registered on its first request
  /// (an endpoint appears in /stats and /metrics once served) and cached,
  /// so the request path never takes the registry mutex.
  struct EndpointMetrics {
    std::once_flag registered;
    MetricCounter* requests = nullptr;
    MetricCounter* errors = nullptr;     ///< Responses with status >= 400.
    MetricCounter* truncated = nullptr;  ///< 200s that carried truncated.
    MetricHistogram* duration = nullptr;
  };
  /// The same for one shed reason.
  struct ShedMetric {
    std::once_flag registered;
    MetricCounter* shed = nullptr;
  };

  /// A finished request on `path`: its HTTP status, wall seconds, and
  /// whether the body carried truncated results.
  void RecordRequest(const std::string& path, int status, double seconds,
                     bool truncated);
  /// A request shed before any work ran, by one of kShedReasons.
  void RecordShed(const char* reason);

  /// Task 0 of the pool: accept loop + drain coordinator.
  void ListenerLoop();
  /// Tasks 1..N: pop a connection, serve it until it closes.
  void WorkerLoop();
  /// Serves one connection end to end: a keep-alive loop reading requests
  /// off one fd until the client opts out (`Connection: close`), the idle
  /// deadline expires, the per-connection request cap is reached, or a
  /// drain starts.
  void ServeConnection(int fd);
  /// Routes a parsed request to its endpoint (response cache consulted for
  /// /audit and /suite). `trace` is this request's span collector (null
  /// when tracing is off); it reaches the handlers via ExecutionLimits.
  HandlerResult Route(const HttpRequest& request, TraceContext* trace);

  /// Reads one request (head + body) off `fd` under io_timeout_ms and the
  /// size limits. `carry` holds bytes read past the previous request on
  /// this connection (in) and past this one (out). With `subsequent` true
  /// (second and later requests of a kept-alive connection) the wait for
  /// the first byte runs under the idle deadline and aborts on drain; a
  /// quiet connection end there returns Cancelled, which the caller treats
  /// as a normal close rather than an error. Other non-OK statuses map to
  /// the HTTP error the caller sends.
  StatusOr<HttpRequest> ReadRequest(int fd, std::string* carry,
                                    bool subsequent) const;
  /// Best-effort blocking send of the whole response, bounded by
  /// `deadline`. Gives up early when the peer hangs up without becoming
  /// writable (no busy-spin against a dead or stalled client).
  void SendResponse(int fd, const HttpResponse& response,
                    const Deadline& deadline) const;
  /// The per-request I/O deadline (io_timeout_ms, infinite when 0).
  Deadline IoDeadline() const;

  std::map<std::string, std::unique_ptr<Table>> tables_;
  const ServerOptions options_;
  const int num_workers_;
  ResourceBudget process_budget_;
  AdmissionController admission_;
  ResponseCache response_cache_;
  BoundedQueue<int> queue_;
  CancellationSource drain_source_;
  ServerEnv env_;
  std::atomic<bool> draining_{false};
  /// Declared after every owner its callback families read, so it is
  /// destroyed first.
  MetricsRegistry metrics_;
  MetricCounter* accepted_ = nullptr;      ///< Admitted past the gate.
  MetricCounter* parse_errors_ = nullptr;  ///< Connections never parsed.
  MetricCounter* keep_alive_reuses_ = nullptr;  ///< On a reused connection.
  MetricCounter* shed_total_ = nullptr;         ///< reason="total".
  std::array<EndpointMetrics, std::size(kEndpoints)> endpoints_;
  std::array<ShedMetric, std::size(kShedReasons)> shed_;
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace fairrank

#endif  // FAIRRANK_SERVER_SERVER_H_

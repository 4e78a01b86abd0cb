// server_load — load generator for fairauditd and the first checked-in
// serving-layer baselines.
//
// Replays a fixed mixed trace (/audit + /suite + /stats, 10-request cycle)
// from N concurrent client threads, in two equal-duration phases:
//
//   phase "close":      one fresh connection per request (HttpFetch),
//                       i.e. the pre-keep-alive cost model;
//   phase "keep_alive": one persistent connection per client (HttpClient),
//                       reconnecting only when the server closes.
//
// Both phases run against the same warm server (every trace target is
// fetched once up front), so the delta between them isolates connection
// setup/teardown cost rather than cache warmup. Per endpoint and phase the
// harness reports p50/p99/max latency, throughput, and shed rate (429/503),
// prints a human-readable table, and writes machine-readable
// BENCH_server_load.json for the perf trajectory.
//
// Before the daemon drains, the harness scrapes GET /metrics once and
// reports the *server-side* p50/p99 per endpoint (the daemon's own
// GK-sketch quantiles, cumulative over warmup + both phases) next to the
// client-side numbers — the gap between the two is queueing plus the
// network/loopback round trip, client-observable but invisible to the
// server's own histogram.
//
// Self-contained by default: boots an in-process FairAuditServer on an
// ephemeral port over a synthetic dataset (--workers). Point it at an
// external daemon with --host/--port (the CI smoke job does).
//
//   server_load [--clients 4] [--duration-ms 2000] [--workers 150]
//               [--host 127.0.0.1] [--port 0] [--timeout-ms 10000]
//               [--response-cache-mb 8] [--out BENCH_server_load.json]
//
// Exit status is non-zero when the run produced no successful requests —
// the smoke job's signal that the daemon was unreachable.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "marketplace/generator.h"
#include "server/client.h"
#include "server/server.h"

namespace fairrank {
namespace {

/// One request of the trace cycle: reporting endpoint + concrete target.
struct TraceItem {
  const char* endpoint;
  const char* target;
};

/// The 10-request cycle every client replays: 60% audits over three
/// distinct parameterizations (so the response cache sees both hits and
/// misses), one suite, three stats probes. Deliberately small audits — the
/// harness measures the serving layer, not the search.
constexpr TraceItem kTrace[] = {
    {"/audit", "/audit?function=alpha:0.5&algorithm=unbalanced&seed=3"},
    {"/audit", "/audit?function=f6&algorithm=unbalanced&seed=3"},
    {"/stats", "/stats"},
    {"/audit", "/audit?function=alpha:0.5&algorithm=unbalanced&seed=3"},
    {"/audit", "/audit?function=alpha:0.25&algorithm=unbalanced&seed=3"},
    {"/stats", "/stats"},
    {"/suite", "/suite?functions=alpha:0.5&algorithms=unbalanced&seed=3"},
    {"/audit", "/audit?function=f6&algorithm=unbalanced&seed=3"},
    {"/audit", "/audit?function=alpha:0.5&algorithm=unbalanced&seed=3"},
    {"/stats", "/stats"},
};
constexpr size_t kTraceLen = sizeof(kTrace) / sizeof(kTrace[0]);

/// One client's raw measurements for one phase.
struct ClientLog {
  /// Parallel arrays: trace index, latency, HTTP status (0 = transport
  /// error) per request fired.
  std::vector<size_t> trace_index;
  std::vector<int64_t> micros;
  std::vector<int> status;
  uint64_t connects = 0;  ///< keep_alive phase: TCP connects this client.
};

/// Aggregated per-endpoint numbers after merging all clients.
struct EndpointReport {
  uint64_t requests = 0;
  uint64_t shed = 0;    ///< 429/503 — load-shedding responses.
  uint64_t errors = 0;  ///< Other >= 400s and transport failures.
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double throughput_rps = 0;
};

struct PhaseReport {
  std::map<std::string, EndpointReport> endpoints;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t connects = 0;
  double seconds = 0;
  double throughput_rps = 0;
};

double PercentileMs(std::vector<int64_t>& sorted_micros, double q) {
  if (sorted_micros.empty()) return 0;
  size_t index = static_cast<size_t>(q * (sorted_micros.size() - 1));
  return sorted_micros[index] / 1000.0;
}

PhaseReport Aggregate(const std::vector<ClientLog>& logs, double seconds) {
  PhaseReport report;
  report.seconds = seconds;
  std::map<std::string, std::vector<int64_t>> latencies;
  for (const ClientLog& log : logs) {
    report.connects += log.connects;
    for (size_t i = 0; i < log.micros.size(); ++i) {
      const char* endpoint = kTrace[log.trace_index[i]].endpoint;
      EndpointReport& ep = report.endpoints[endpoint];
      ++ep.requests;
      ++report.requests;
      int status = log.status[i];
      if (status == 429 || status == 503) {
        ++ep.shed;
        ++report.shed;
      } else if (status == 0 || status >= 400) {
        ++ep.errors;
        ++report.errors;
      }
      latencies[endpoint].push_back(log.micros[i]);
    }
  }
  for (auto& [endpoint, micros] : latencies) {
    std::sort(micros.begin(), micros.end());
    EndpointReport& ep = report.endpoints[endpoint];
    ep.p50_ms = PercentileMs(micros, 0.5);
    ep.p99_ms = PercentileMs(micros, 0.99);
    ep.max_ms = micros.back() / 1000.0;
    if (seconds > 0) ep.throughput_rps = ep.requests / seconds;
  }
  if (seconds > 0) report.throughput_rps = report.requests / seconds;
  return report;
}

void PrintPhase(const char* name, const PhaseReport& report) {
  std::printf("phase %-10s  %.2fs  %llu requests  %.0f req/s  shed %llu  "
              "errors %llu",
              name, report.seconds,
              static_cast<unsigned long long>(report.requests),
              report.throughput_rps,
              static_cast<unsigned long long>(report.shed),
              static_cast<unsigned long long>(report.errors));
  if (report.connects > 0) {
    std::printf("  connects %llu",
                static_cast<unsigned long long>(report.connects));
  }
  std::printf("\n");
  for (const auto& [endpoint, ep] : report.endpoints) {
    double shed_rate = ep.requests > 0
                           ? static_cast<double>(ep.shed) / ep.requests
                           : 0;
    std::printf("  %-8s  n=%-6llu  p50 %8.3f ms  p99 %8.3f ms  "
                "max %8.3f ms  %7.0f req/s  shed %.3f\n",
                endpoint.c_str(),
                static_cast<unsigned long long>(ep.requests), ep.p50_ms,
                ep.p99_ms, ep.max_ms, ep.throughput_rps, shed_rate);
  }
}

std::string JsonPhase(const PhaseReport& report) {
  std::string out = "{";
  out += "\"seconds\":" + FormatDouble(report.seconds, 3) + ",";
  out += "\"requests\":" + std::to_string(report.requests) + ",";
  out += "\"throughput_rps\":" + FormatDouble(report.throughput_rps, 1) + ",";
  out += "\"shed\":" + std::to_string(report.shed) + ",";
  out += "\"errors\":" + std::to_string(report.errors) + ",";
  out += "\"connects\":" + std::to_string(report.connects) + ",";
  out += "\"endpoints\":{";
  bool first = true;
  for (const auto& [endpoint, ep] : report.endpoints) {
    if (!first) out += ",";
    first = false;
    double shed_rate =
        ep.requests > 0 ? static_cast<double>(ep.shed) / ep.requests : 0;
    out += "\"" + endpoint + "\":{";
    out += "\"requests\":" + std::to_string(ep.requests) + ",";
    out += "\"p50_ms\":" + FormatDouble(ep.p50_ms, 3) + ",";
    out += "\"p99_ms\":" + FormatDouble(ep.p99_ms, 3) + ",";
    out += "\"max_ms\":" + FormatDouble(ep.max_ms, 3) + ",";
    out += "\"throughput_rps\":" + FormatDouble(ep.throughput_rps, 1) + ",";
    out += "\"shed_rate\":" + FormatDouble(shed_rate, 4) + ",";
    out += "\"errors\":" + std::to_string(ep.errors);
    out += "}";
  }
  out += "}}";
  return out;
}

/// Replays the trace until `deadline` on either a persistent HttpClient
/// (keep_alive true) or one fresh connection per request.
ClientLog RunClient(const std::string& host, int port, bool keep_alive,
                    const Deadline& deadline, int64_t timeout_ms,
                    size_t start_offset) {
  ClientLog log;
  HttpClient client(host, port);
  size_t cursor = start_offset;  // Staggered so clients don't march in step.
  while (deadline.RemainingSeconds() > 0) {
    size_t index = cursor % kTraceLen;
    ++cursor;
    Stopwatch watch;
    int status = 0;
    if (keep_alive) {
      StatusOr<HttpFetchResult> r =
          client.Fetch("GET", kTrace[index].target, "", timeout_ms);
      if (r.ok()) status = r->status_code;
    } else {
      StatusOr<HttpFetchResult> r = HttpFetch(
          host, port, "GET", kTrace[index].target, "", timeout_ms);
      if (r.ok()) status = r->status_code;
    }
    log.trace_index.push_back(index);
    log.micros.push_back(watch.ElapsedMicros());
    log.status.push_back(status);
  }
  log.connects = keep_alive ? client.connects() : 0;
  return log;
}

/// Server-side latency quantiles parsed out of a /metrics scrape.
struct ServerSideLatency {
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Pulls fairrank_http_request_duration_seconds{endpoint=...,quantile=...}
/// samples out of Prometheus exposition text. Tolerant of families the
/// scrape also carries; unknown lines are skipped.
std::map<std::string, ServerSideLatency> ParseServerQuantiles(
    const std::string& metrics) {
  std::map<std::string, ServerSideLatency> out;
  const std::string family = "fairrank_http_request_duration_seconds{";
  for (const std::string& line : Split(metrics, '\n')) {
    if (line.rfind(family, 0) != 0) continue;
    size_t close = line.find('}');
    size_t space = line.find(' ', close);
    if (close == std::string::npos || space == std::string::npos) continue;
    std::string labels = line.substr(family.size(), close - family.size());
    double value = 0;
    if (!ParseDouble(Trim(line.substr(space + 1)), &value)) continue;
    auto label_value = [&labels](const std::string& name) -> std::string {
      std::string needle = name + "=\"";
      size_t start = labels.find(needle);
      if (start == std::string::npos) return "";
      start += needle.size();
      size_t end = labels.find('"', start);
      return end == std::string::npos ? "" : labels.substr(start, end - start);
    };
    std::string endpoint = label_value("endpoint");
    std::string quantile = label_value("quantile");
    if (endpoint.empty()) continue;
    if (quantile == "0.5") {
      out[endpoint].p50_ms = value * 1000.0;
    } else if (quantile == "0.99") {
      out[endpoint].p99_ms = value * 1000.0;
    }
  }
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "server_load: %s\n", status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  StatusOr<FlagParser> flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status());
  Status known = ValidateKnownFlags(
      *flags, {"clients", "duration-ms", "workers", "host", "port",
               "timeout-ms", "response-cache-mb", "out"});
  if (!known.ok()) return Fail(known);

  StatusOr<int64_t> clients = flags->GetInt("clients", 4);
  StatusOr<int64_t> duration_ms = flags->GetInt("duration-ms", 2000);
  StatusOr<int64_t> workers = flags->GetInt("workers", 150);
  StatusOr<int64_t> port_flag = flags->GetInt("port", 0);
  StatusOr<int64_t> timeout_ms = flags->GetInt("timeout-ms", 10000);
  StatusOr<int64_t> response_cache_mb = flags->GetInt("response-cache-mb", 8);
  for (const auto* value :
       {&clients, &duration_ms, &workers, &port_flag, &timeout_ms,
        &response_cache_mb}) {
    if (!value->ok()) return Fail(value->status());
  }
  if (*clients < 1 || *duration_ms < 1) {
    return Fail(Status::InvalidArgument(
        "--clients and --duration-ms must be >= 1"));
  }
  std::string host = flags->GetString("host", "127.0.0.1");
  std::string out_path = flags->GetString("out", "BENCH_server_load.json");

  // --port 0 (the default): boot an in-process daemon on an ephemeral port.
  std::unique_ptr<FairAuditServer> server;
  int port = static_cast<int>(*port_flag);
  const bool in_process = port == 0;
  if (in_process) {
    GeneratorOptions gen;
    gen.num_workers = static_cast<size_t>(*workers);
    gen.seed = 7;
    StatusOr<Table> table = GenerateWorkers(gen);
    if (!table.ok()) return Fail(table.status());
    std::map<std::string, std::unique_ptr<Table>> tables;
    tables["synthetic"] = std::make_unique<Table>(std::move(table).value());
    ServerOptions options;
    options.port = 0;
    options.num_workers = static_cast<int>(*clients) + 2;
    options.queue_capacity = static_cast<size_t>(*clients) * 4;
    options.response_cache_mb = static_cast<uint64_t>(*response_cache_mb);
    server = std::make_unique<FairAuditServer>(std::move(tables), "synthetic",
                                               std::move(options));
    Status started = server->Start();
    if (!started.ok()) return Fail(started);
    port = server->port();
    std::printf("in-process daemon on %s:%d (%lld synthetic workers)\n",
                host.c_str(), port, static_cast<long long>(*workers));
  } else {
    std::printf("external daemon at %s:%d\n", host.c_str(), port);
  }

  const size_t n_clients = static_cast<size_t>(*clients);
  std::vector<ClientLog> close_logs(n_clients);
  std::vector<ClientLog> keep_logs(n_clients);
  double close_seconds = 0;
  double keep_seconds = 0;
  std::string metrics_text;  // Written once, by the last client to finish.
  std::atomic<size_t> clients_done{0};

  // One pool hosts everything: with an in-process daemon, task 0 runs
  // Serve() and the last client to finish triggers the drain that lets it
  // return. External mode runs clients only.
  const size_t base = in_process ? 1 : 0;
  Status serve_status = Status::OK();
  ParallelForEach(
      n_clients + base, static_cast<int>(n_clients + base),
      [&](size_t task) {
        if (in_process && task == 0) {
          serve_status = server->Serve();
          return;
        }
        const size_t c = task - base;
        const size_t offset = c * 3;  // Staggered trace starts.
        // Warm every trace target once (per client, so no cross-client
        // coordination): neither phase pays first-touch cost (lazy table
        // columns, response cache fill) and the phase delta isolates
        // connection handling. Runs here — not before the pool — because
        // the in-process daemon's listener only runs once task 0 is up.
        {
          HttpClient warm(host, port);
          for (const TraceItem& item : kTrace) {
            StatusOr<HttpFetchResult> r =
                warm.Fetch("GET", item.target, "", *timeout_ms);
            if (!r.ok()) {
              std::fprintf(stderr, "server_load: warmup %s: %s\n",
                           item.target, r.status().ToString().c_str());
              break;
            }
          }
        }
        Stopwatch phase_watch;
        Deadline close_deadline = Deadline::AfterMillis(*duration_ms);
        close_logs[c] = RunClient(host, port, /*keep_alive=*/false,
                                  close_deadline, *timeout_ms, offset);
        if (c == 0) close_seconds = phase_watch.ElapsedSeconds();
        phase_watch.Restart();
        Deadline keep_deadline = Deadline::AfterMillis(*duration_ms);
        keep_logs[c] = RunClient(host, port, /*keep_alive=*/true,
                                 keep_deadline, *timeout_ms, offset);
        if (c == 0) keep_seconds = phase_watch.ElapsedSeconds();
        if (clients_done.fetch_add(1) + 1 == n_clients) {
          // Last client out scrapes the server's own latency histograms —
          // before the in-process drain tears the listener down.
          StatusOr<HttpFetchResult> scrape =
              HttpFetch(host, port, "GET", "/metrics", "", *timeout_ms);
          if (scrape.ok() && scrape->status_code == 200) {
            metrics_text = std::move(scrape->body);
          }
          if (in_process) server->RequestShutdown();
        }
      });
  if (in_process && !serve_status.ok()) return Fail(serve_status);

  PhaseReport close_report = Aggregate(close_logs, close_seconds);
  PhaseReport keep_report = Aggregate(keep_logs, keep_seconds);
  PrintPhase("close", close_report);
  PrintPhase("keep_alive", keep_report);
  double speedup = close_report.throughput_rps > 0
                       ? keep_report.throughput_rps /
                             close_report.throughput_rps
                       : 0;
  std::printf("keep-alive throughput speedup: %.2fx\n", speedup);

  std::map<std::string, ServerSideLatency> server_side =
      ParseServerQuantiles(metrics_text);
  if (!server_side.empty()) {
    std::printf("server-side (from /metrics, cumulative):\n");
    for (const auto& [endpoint, lat] : server_side) {
      std::printf("  %-8s  p50 %8.3f ms  p99 %8.3f ms\n", endpoint.c_str(),
                  lat.p50_ms, lat.p99_ms);
    }
  } else {
    std::printf("server-side: /metrics scrape unavailable\n");
  }

  std::string json = "{";
  json += "\"bench\":\"server_load\",";
  json += "\"clients\":" + std::to_string(n_clients) + ",";
  json += "\"duration_ms\":" + std::to_string(*duration_ms) + ",";
  json += "\"workers\":" + std::to_string(*workers) + ",";
  json += "\"in_process\":" + std::string(in_process ? "true" : "false") +
          ",";
  json += "\"trace_len\":" + std::to_string(kTraceLen) + ",";
  json += "\"phases\":{";
  json += "\"close\":" + JsonPhase(close_report) + ",";
  json += "\"keep_alive\":" + JsonPhase(keep_report);
  json += "},";
  json += "\"server_side\":{";
  bool first_ep = true;
  for (const auto& [endpoint, lat] : server_side) {
    if (!first_ep) json += ",";
    first_ep = false;
    json += "\"" + endpoint + "\":{";
    json += "\"p50_ms\":" + FormatDouble(lat.p50_ms, 3) + ",";
    json += "\"p99_ms\":" + FormatDouble(lat.p99_ms, 3);
    json += "}";
  }
  json += "},";
  json += "\"keep_alive_speedup\":" + FormatDouble(speedup, 2);
  json += "}";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Fail(Status::IOError("cannot write " + out_path));
  }
  std::fprintf(out, "%s\n", json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  uint64_t successes = (close_report.requests - close_report.errors) +
                       (keep_report.requests - keep_report.errors);
  return successes > 0 ? 0 : 1;
}

}  // namespace
}  // namespace fairrank

int main(int argc, char** argv) { return fairrank::Main(argc, argv); }

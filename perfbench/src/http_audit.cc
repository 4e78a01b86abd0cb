// http_audit — an in-process fairauditd (FairAuditServer) over the 500-
// worker population with 2 request threads, driven by a closed loop of 2
// keep-alive clients (auditors wait for each reply). Each client replays a
// seeded mix, dealt in shuffled decks of 36 so every seed gets the same
// proportions:
//   26  /audit, unbalanced, distinct parameters (response-cache misses),
//       one for each of 26 alpha functions, 0.02 to 0.97 (~30 ms each;
//       the median request falls mid-class, and spreading it over many
//       functions keeps it steady across populations)
//    4  /audit, balanced alpha:0.5, distinct parameters (misses, ~250 ms;
//       the 99th percentile falls in this class)
//    4  /audit from a hot set of four repeated requests (cache hits)
//    1  /stats and 1 /metrics scrape
// "Distinct parameters" vary the request's seed, so every miss does the
// full audit of its function.
//
// The seed drives the traffic: each client's deck order. The daemon serves
// the default-seed population (bench_common.h's 500 workers), because the
// unbalanced audit's cost swings by a third between random 500-worker
// populations, and that would swamp the serving layer this workload
// measures. Every 200 /audit body must equal
// the library's FormatAuditJson for the same parameters (timings aside);
// 429/503 and any other non-200 count as failed.
//
// Traced run: the expected bodies are computed in traced steps, then one
// untraced load phase and one traced phase (a span per request) run;
// server-side latency and cache counters come from a final /metrics scrape.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "fairness/option_flags.h"
#include "server/client.h"
#include "server/server.h"
#include "steps.h"
#include "workloads.h"

namespace perfbench {

using fairrank::Status;

namespace {

constexpr size_t kWorkers = 500;
constexpr int kClients = 2;
constexpr int64_t kTimeoutMs = 30000;
constexpr int kSetupReps = 51;

/// One request of the mix: an audit (function + algorithm) or a scrape.
struct Request {
  std::string function;  ///< Empty for scrapes.
  std::string algorithm;
  bool hot = false;      ///< Fixed parameters, so repeats hit the cache.
  std::string target;    ///< Scrape target.
};

/// The 36 requests every deck holds (see the header comment).
std::vector<Request> Deck() {
  std::vector<Request> deck;
  for (int i = 0; i < 26; ++i) {
    deck.push_back({"alpha:" + fairrank::FormatDouble(0.02 + 0.038 * i, 3),
                    "unbalanced", false, ""});
  }
  for (int i = 0; i < 4; ++i) {
    deck.push_back({"alpha:0.5", "balanced", false, ""});
  }
  deck.push_back({"alpha:0.5", "unbalanced", true, ""});
  deck.push_back({"f6:13", "unbalanced", true, ""});
  deck.push_back({"alpha:0.25", "balanced", true, ""});
  deck.push_back({"f7:14", "unbalanced", true, ""});
  deck.push_back({"", "", false, "/stats"});
  deck.push_back({"", "", false, "/metrics"});
  return deck;
}

/// One request a client sent and what came back.
struct Sent {
  std::string function;
  std::string algorithm;
  std::string target;
  int status = 0;  ///< 0: transport failure.
  double ms = 0.0;
  std::string problem;  ///< Why the response failed its check; "" if not.
};

/// Expected /audit bodies (timings masked), keyed by AuditKey.
using ExpectedBodies = std::map<std::string, std::string>;

std::string AuditKey(const std::string& function,
                     const std::string& algorithm) {
  return function + " " + algorithm;
}

/// "" when a response passes: 200, and for /audit the expected body.
std::string CheckResponse(const Sent& s, const std::string& body,
                          const ExpectedBodies& expected) {
  if (s.status == 0) return "transport failure";
  if (s.status == 429 || s.status == 503) {
    return "shed with " + std::to_string(s.status);
  }
  if (s.status != 200) return "status " + std::to_string(s.status);
  if (!s.algorithm.empty() &&
      MaskTimings(body) != expected.at(AuditKey(s.function, s.algorithm))) {
    return "body differs from FormatAuditJson";
  }
  return "";
}

struct PhaseLog {
  std::vector<Sent> sent;
  uint64_t connects = 0;
  double seconds = 0.0;
};

/// Runs the closed loop for `seconds`, checking each response as it
/// arrives. Request seeds start at `base` so every phase's misses are new
/// to the response cache.
PhaseLog RunLoad(int port, uint64_t seed, uint64_t base, double seconds,
                 const ExpectedBodies& expected, SpanRecorder* recorder) {
  std::vector<PhaseLog> logs(kClients);
  Timer phase;
  const fairrank::Deadline deadline =
      fairrank::Deadline::AfterMillis(static_cast<int64_t>(seconds * 1000));
  auto client_loop = [&](int c) {
    fairrank::HttpClient client("127.0.0.1", port);
    fairrank::Rng rng(seed * 7919 + base + static_cast<uint64_t>(c));
    uint64_t next_seed = base + 1'000'000ull * static_cast<uint64_t>(c + 1);
    PhaseLog& log = logs[static_cast<size_t>(c)];
    std::vector<Request> deck = Deck();
    size_t dealt = deck.size();
    while (deadline.RemainingSeconds() > 0) {
      if (dealt == deck.size()) {
        rng.Shuffle(&deck);
        dealt = 0;
      }
      const Request& request = deck[dealt++];
      Sent s;
      if (request.function.empty()) {
        s.target = request.target;
      } else {
        s.function = request.function;
        s.algorithm = request.algorithm;
        s.target = "/audit?function=" + s.function + "&algorithm=" +
                   s.algorithm + "&seed=" +
                   (request.hot ? std::string("1")
                                : std::to_string(next_seed++));
      }
      Timer watch;
      std::string body;
      {
        ScopedSpan span(recorder,
                        s.algorithm.empty() ? "server.scrape" : "server.audit",
                        -1);
        fairrank::StatusOr<fairrank::HttpFetchResult> r =
            client.Fetch("GET", s.target, "", kTimeoutMs);
        if (r.ok()) {
          s.status = r->status_code;
          body = std::move(r->body);
        }
      }
      s.ms = watch.Millis();
      s.problem = CheckResponse(s, body, expected);
      log.sent.push_back(std::move(s));
    }
    log.connects = client.connects();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  PhaseLog merged;
  merged.seconds = phase.Seconds();
  for (PhaseLog& log : logs) {
    merged.connects += log.connects;
    for (Sent& s : log.sent) merged.sent.push_back(std::move(s));
  }
  return merged;
}

/// Serves on a thread for as long as it lives; drains and joins on exit.
class ServingThread {
 public:
  explicit ServingThread(fairrank::FairAuditServer* server)
      : server_(server), thread_([this] { status_ = server_->Serve(); }) {}
  // Reached with the thread still running only on an early error return,
  // whose status is the one reported.
  ~ServingThread() { static_cast<void>(Stop()); }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

  Status Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
    return status_;
  }

 private:
  fairrank::FairAuditServer* server_;
  Status status_ = Status::OK();
  std::thread thread_;
};

/// Value of one Prometheus sample line "<series> <value>", 0 if absent.
double Sample(const std::string& metrics, const std::string& series) {
  for (const std::string& line : fairrank::Split(metrics, '\n')) {
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      double value = 0.0;
      if (fairrank::ParseDouble(line.substr(series.size() + 1), &value)) {
        return value;
      }
    }
  }
  return 0.0;
}

/// The library's rendering of one /audit request, timings masked.
fairrank::StatusOr<std::string> ExpectedBody(const fairrank::Table& workers,
                                             const std::string& function,
                                             const std::string& algorithm,
                                             SpanRecorder* recorder,
                                             ReportWork* work) {
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<fairrank::ScoringFunction> fn,
                            fairrank::MakeFunctionFromSpec(function));
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::AuditOptions options,
                            OptionsFromPairs({{"algorithm", algorithm}}));
  FAIRRANK_ASSIGN_OR_RETURN(
      AuditOutput output,
      ScoreAndAudit(workers, *fn, options, recorder, -1, work));
  return std::move(output.masked_json);
}

enum class Requests { kAll, kAudits, kScrapes };

std::vector<double> Latencies(const PhaseLog& log, Requests which) {
  std::vector<double> out;
  for (const Sent& s : log.sent) {
    const bool audit = !s.algorithm.empty();
    if ((which == Requests::kAudits && !audit) ||
        (which == Requests::kScrapes && audit)) {
      continue;
    }
    out.push_back(s.ms);
  }
  return out;
}

}  // namespace

Status RunHttpAudit(const RunConfig& config, SpanRecorder* recorder,
                    Outcome* outcome) {
  // Set-up: the population and a bound server; the last one is measured.
  std::unique_ptr<fairrank::FairAuditServer> server;
  auto setup = [&]() -> Status {
    server.reset();
    FAIRRANK_ASSIGN_OR_RETURN(
        fairrank::Table workers,
        GenerateWorkers(kWorkers, kDefaultSeed, recorder));
    ScopedSpan span(recorder, "server.start", -1);
    std::map<std::string, std::unique_ptr<fairrank::Table>> tables;
    tables["workers"] = std::make_unique<fairrank::Table>(std::move(workers));
    fairrank::ServerOptions options;
    options.num_workers = 2;
    server = std::make_unique<fairrank::FairAuditServer>(
        std::move(tables), "workers", std::move(options));
    return server->Start();
  };
  FAIRRANK_RETURN_NOT_OK(TimeSetups(
      recorder != nullptr ? 1 : (kSetupReps + 1) / 2, setup, outcome));
  // The library's answer to every audit in the mix, from the checker's own
  // copy of the population, outside the timed set-up.
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::Table workers,
                            GenerateWorkers(kWorkers, kDefaultSeed, nullptr));
  ExpectedBodies expected;
  ReportWork work;
  for (const Request& request : Deck()) {
    if (request.function.empty()) continue;
    const std::string key = AuditKey(request.function, request.algorithm);
    if (expected.count(key) > 0) continue;
    FAIRRANK_ASSIGN_OR_RETURN(
        expected[key], ExpectedBody(workers, request.function,
                                    request.algorithm, recorder, &work));
  }

  ServingThread serving(server.get());
  const PhaseLog untraced = RunLoad(server->port(), config.seed, 0,
                                    config.seconds, expected, nullptr);
  outcome->op_ms = Latencies(untraced, Requests::kAll);
  outcome->measured_s = untraced.seconds;

  PhaseLog traced;
  int64_t pass_start = 0;
  int64_t pass_end = 0;
  std::string metrics;
  if (recorder != nullptr) {
    pass_start = NowNs();
    traced = RunLoad(server->port(), config.seed, 100'000'000ull,
                     config.seconds, expected, recorder);
    pass_end = NowNs();
    fairrank::HttpClient scraper("127.0.0.1", server->port());
    fairrank::StatusOr<fairrank::HttpFetchResult> scrape =
        scraper.Fetch("GET", "/metrics", "", kTimeoutMs);
    if (!scrape.ok() || scrape->status_code != 200) {
      return Status::Internal("final /metrics scrape failed");
    }
    metrics = std::move(scrape->body);
  }
  FAIRRANK_RETURN_NOT_OK(serving.Stop());

  for (const Sent& s : untraced.sent) outcome->Op(s.target, s.problem);
  std::map<std::string, std::vector<double>> by_kind;
  for (const Sent& s : untraced.sent) {
    by_kind[s.algorithm.empty() ? s.target : AuditKey(s.function, s.algorithm)]
        .push_back(s.ms);
  }
  for (const auto& [kind, ms] : by_kind) {
    std::printf("  %-24s n %4zu  p50 %9.3f ms  max %9.3f ms\n", kind.c_str(),
                ms.size(), Median(ms), Percentile(ms, 1.0));
  }
  std::printf("untraced: %zu requests in %.3f s over %llu connections\n",
              untraced.sent.size(), untraced.seconds,
              static_cast<unsigned long long>(untraced.connects));
  if (recorder == nullptr) return TimeSetups(kSetupReps / 2, setup, outcome);

  for (const Sent& s : traced.sent) outcome->Op(s.target, s.problem);
  AddSpanMetrics(recorder->Snapshot(), pass_start, pass_end, work, outcome);
  // Both phases last --seconds, so the overhead shows as time per request.
  AddOverhead(traced.seconds / static_cast<double>(traced.sent.size()),
              untraced.seconds / static_cast<double>(untraced.sent.size()),
              outcome);

  PhaseLog both = untraced;
  both.connects += traced.connects;
  both.sent.insert(both.sent.end(), traced.sent.begin(), traced.sent.end());
  const std::string audit =
      "fairrank_http_request_duration_seconds{endpoint=\"/audit\",";
  auto& m = outcome->layer;
  m["server.p50_ms"] = 1000.0 * Sample(metrics, audit + "quantile=\"0.5\"}");
  m["server.p99_ms"] = 1000.0 * Sample(metrics, audit + "quantile=\"0.99\"}");
  m["server.wait_ms"] =
      Median(Latencies(both, Requests::kAudits)) - m["server.p50_ms"];
  const double hits =
      Sample(metrics, "fairrank_response_cache_events_total{event=\"hits\"}");
  const double misses =
      Sample(metrics, "fairrank_response_cache_events_total{event=\"misses\"}");
  m["server.response_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["server.keepalive_reuse_ratio"] =
      both.sent.empty() ? 0.0
                        : 1.0 - static_cast<double>(both.connects) /
                                    static_cast<double>(both.sent.size());
  m["server.scrape_ms"] = Median(Latencies(both, Requests::kScrapes));
  for (const Sent& s : both.sent) {
    if (s.status == 429 || s.status == 503) {
      m["server.shed"] += 1;
    } else if (s.status != 200) {
      m["server.errors"] += 1;
    }
  }
  return Status::OK();
}

}  // namespace perfbench

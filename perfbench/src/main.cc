// perfbench — the fairrank benchmark executable. Runs one workload and
// prints, as its last stdout line, {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) as plain numbers; perfbench/run.py attaches the units.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             --data-dir DIR
//
// Workloads and metrics are documented in perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/str_util.h"
#include "measure.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric, in BENCHMARK.json order. Workloads leave the
/// ones not on their path at 0.
std::vector<std::string> PerLayerMetricNames() {
  std::vector<std::string> names = {
      "data.csv_read_s",
      "data.csv_rows",
      "marketplace.generate_s",
      "marketplace.score_s",
      "fairness.evaluator.make_s",
      "fairness.evaluator.histogram_builds",
      "fairness.evaluator.histogram_requests",
      "fairness.evaluator.histogram_reuse_ratio",
      "fairness.evaluator.divergence_evals",
      "fairness.evaluator.divergence_requests",
      "fairness.evaluator.divergence_reuse_ratio",
      "fairness.evaluator.pair_ns"};
  for (const std::string& algorithm : MeasuredAlgorithms()) {
    names.push_back("fairness.search.busy_s." + algorithm);
    names.push_back("fairness.search.nodes." + algorithm);
  }
  for (const std::string& algorithm : MeasuredAlgorithms()) {
    names.push_back("fairness.report.busy_s." + algorithm);
  }
  for (const char* name :
       {"fairness.report.pairs", "fairness.report.render_s",
        "fairness.suite.overhead_s", "fairness.aggregate.ingest_s",
        "fairness.aggregate.cells", "fairness.aggregate.audit_s",
        "server.p50_ms", "server.p99_ms", "server.wait_ms",
        "server.response_cache_hit_ratio", "server.keepalive_reuse_ratio",
        "server.scrape_ms", "server.shed", "server.errors"}) {
    names.emplace_back(name);
  }
  for (const std::string& layer : Layers()) {
    names.push_back(layer + ".busy_s");
    names.push_back(layer + ".self_s");
  }
  names.emplace_back("trace.span_coverage");
  names.emplace_back("trace.overhead_ratio");
  return names;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2_grid|biased_csv_1m|exhaustive_500|http_audit "
               "[--seed N] [--seconds S] [--trace 0|1] --data-dir DIR\n",
               message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  fairrank::StatusOr<fairrank::FlagParser> flags =
      fairrank::FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Usage(flags.status().ToString());
  fairrank::Status known = fairrank::ValidateKnownFlags(
      *flags, {"workload", "seed", "seconds", "trace", "data-dir"});
  if (!known.ok()) return Usage(known.ToString());
  RunConfig config;
  config.workload = flags->GetString("workload", "");
  config.data_dir = flags->GetString("data-dir", "");
  int64_t seed = 0;
  int64_t seconds = 0;
  int64_t trace = 0;
  if (!fairrank::ParseInt64(flags->GetString("seed", "20190326"), &seed) ||
      !fairrank::ParseInt64(flags->GetString("seconds", "12"), &seconds) ||
      !fairrank::ParseInt64(flags->GetString("trace", "0"), &trace) ||
      seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage("--seed, --seconds and --trace need integers >= 0, >= 1, "
                 "and 0|1");
  }
  if (config.data_dir.empty()) return Usage("--data-dir is required");
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;

  using RunFn = fairrank::Status (*)(const RunConfig&, SpanRecorder*,
                                     Outcome*);
  const std::map<std::string, RunFn> workloads = {
      {"table2_grid", &RunTable2Grid},
      {"biased_csv_1m", &RunBiasedCsv},
      {"exhaustive_500", &RunExhaustive},
      {"http_audit", &RunHttpAudit}};
  auto it = workloads.find(config.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  SpanRecorder recorder;
  Outcome outcome;
  fairrank::Status status =
      it->second(config, config.trace ? &recorder : nullptr, &outcome);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: the workload attempted nothing\n");
    return 1;
  }

  std::map<std::string, double> metrics;
  if (config.trace) {
    const std::string path = config.data_dir + "/" + config.workload + "-" +
                             std::to_string(config.seed) + ".spans.json";
    if (!recorder.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", recorder.Snapshot().size(),
                path.c_str());
    for (const std::string& name : PerLayerMetricNames()) {
      auto found = outcome.layer.find(name);
      metrics[name] = found != outcome.layer.end() ? found->second : 0.0;
    }
  } else {
    metrics["setup_s"] = Median(outcome.setup_s);
    metrics["op_p50_ms"] = Median(outcome.op_ms);
    metrics["ops_per_s"] =
        outcome.measured_s > 0 ? outcome.op_ms.size() / outcome.measured_s
                               : 0.0;
    metrics["peak_rss_mb"] = PeakRssMb();
    // The tail is printed but not a metric: see README.md.
    std::printf("timed: %zu operations in %.3f s; %zu set-ups; "
                "op_p95_ms %.3f, slowest %.3f\n",
                outcome.op_ms.size(), outcome.measured_s,
                outcome.setup_s.size(), Percentile(outcome.op_ms, 0.95),
                Percentile(outcome.op_ms, 1.0));
  }
  for (const auto& [name, value] : metrics) {
    std::printf("  %-44s %s\n", name.c_str(), Number(value).c_str());
  }
  std::printf("attempted=%llu failed=%llu failed_ratio=%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              Number(static_cast<double>(outcome.failed) /
                     static_cast<double>(outcome.attempted))
                  .c_str());

  std::string line = "{\"correct\":";
  line += outcome.failed == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(outcome.attempted);
  line += ",\"failed\":" + std::to_string(outcome.failed);
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) line += ",";
    first = false;
    line += "\"" + name + "\":" + Number(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

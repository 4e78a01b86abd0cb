#include "measure.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/telemetry.h"

namespace perfbench {

void Outcome::Op(const std::string& what, const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  std::printf("FAILED %s: %s\n", what.c_str(), problem.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that is
  // larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

namespace {

uint64_t CounterValue(const char* name) {
  // GetCounter returns the registered counter (or registers a zero one).
  return fairrank::MetricsRegistry::Global().GetCounter(name, "")->value();
}

}  // namespace

PipelineCounts PipelineCounts::Read() {
  PipelineCounts c;
  c.histogram_builds = CounterValue("fairrank_pipeline_histogram_builds_total");
  c.histogram_reuses =
      CounterValue("fairrank_pipeline_histogram_cache_hits_total");
  c.divergence_evals = CounterValue("fairrank_pipeline_emd_computations_total");
  c.divergence_reuses = CounterValue("fairrank_pipeline_emd_cache_hits_total");
  return c;
}

PipelineCounts PipelineCounts::operator-(const PipelineCounts& before) const {
  PipelineCounts d;
  d.histogram_builds = histogram_builds - before.histogram_builds;
  d.histogram_reuses = histogram_reuses - before.histogram_reuses;
  d.divergence_evals = divergence_evals - before.divergence_evals;
  d.divergence_reuses = divergence_reuses - before.divergence_reuses;
  return d;
}

PipelineCounts& PipelineCounts::operator+=(const PipelineCounts& other) {
  histogram_builds += other.histogram_builds;
  histogram_reuses += other.histogram_reuses;
  divergence_evals += other.divergence_evals;
  divergence_reuses += other.divergence_reuses;
  return *this;
}

std::string WorkCounts::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "nodes=%llu histogram_builds=%llu divergence_evals=%llu "
                "report_pairs=%llu",
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(histogram_builds),
                static_cast<unsigned long long>(divergence_evals),
                static_cast<unsigned long long>(report_pairs));
  return buf;
}

uint64_t ReportPairs(uint64_t k, uint64_t num_worst_pairs) {
  const uint64_t pairs = k < 2 ? 0 : k * (k - 1) / 2;
  return num_worst_pairs > 0 ? 2 * pairs : pairs;
}

std::string CompareCounts(const std::string& what, const WorkCounts& expected,
                          const WorkCounts& actual) {
  if (expected == actual) return "";
  return what + " counts differ between repetitions: " + expected.ToString() +
         " vs " + actual.ToString();
}

namespace {

bool IsTimingKey(const std::string& key) {
  auto ends_with = [&key](const char* suffix) {
    const std::string s(suffix);
    return key.size() >= s.size() &&
           key.compare(key.size() - s.size(), s.size(), s) == 0;
  };
  return key.find("second") != std::string::npos ||
         key.find("per_sec") != std::string::npos || ends_with("_s") ||
         ends_with("_ms") || ends_with("_us") || ends_with("_ns");
}

}  // namespace

std::string MaskTimings(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  size_t i = 0;
  while (i < json.size()) {
    if (json[i] != '"') {
      out += json[i++];
      continue;
    }
    // A string token; a key when followed by ':'.
    size_t end = i + 1;
    while (end < json.size() && json[end] != '"') {
      end += json[end] == '\\' ? 2 : 1;
    }
    const std::string key = json.substr(i + 1, end - i - 1);
    size_t after = end + 1;
    if (after < json.size() && json[after] == ':') {
      size_t value = after + 1;
      if (key == "cache" && value < json.size() && json[value] == '{') {
        size_t close = json.find('}', value);
        if (close == std::string::npos) return out + json.substr(i);
        i = close + 1;
        if (i < json.size() && json[i] == ',') ++i;
        continue;
      }
      if (IsTimingKey(key)) {
        size_t stop = value;
        while (stop < json.size() &&
               (std::isdigit(static_cast<unsigned char>(json[stop])) ||
                json[stop] == '.' || json[stop] == '-' || json[stop] == 'e' ||
                json[stop] == 'E' || json[stop] == '+')) {
          ++stop;
        }
        out += json.substr(i, value - i);
        out += '#';
        i = stop;
        continue;
      }
    }
    out += json.substr(i, after - i);
    i = after;
  }
  return out;
}

std::string CheckNear(const std::string& what, double actual, double expected,
                      double tolerance) {
  if (std::fabs(actual - expected) <= tolerance) return "";
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s = %.6f, expected %.6f within %g",
                what.c_str(), actual, expected, tolerance);
  return buf;
}

const std::vector<std::string>& MeasuredAlgorithms() {
  static const std::vector<std::string> algorithms = {
      "unbalanced",     "r-unbalanced", "balanced",
      "r-balanced",     "all-attributes", "exhaustive"};
  return algorithms;
}

void AddSpanMetrics(const std::vector<Span>& spans, int64_t pass_start_ns,
                    int64_t pass_end_ns, const ReportWork& work,
                    Outcome* outcome) {
  auto& m = outcome->layer;
  for (const auto& [layer, time] : SummarizeLayers(spans)) {
    m[layer + ".busy_s"] = time.busy_s;
    m[layer + ".self_s"] = time.self_s;
  }
  for (const std::string& algorithm : MeasuredAlgorithms()) {
    m["fairness.search.busy_s." + algorithm] =
        SpanSeconds(spans, "fairness.search." + algorithm);
    m["fairness.report.busy_s." + algorithm] =
        SpanSeconds(spans, "fairness.report." + algorithm);
  }
  m["data.csv_read_s"] = SpanSeconds(spans, "data.read_csv");
  m["marketplace.generate_s"] = SpanSeconds(spans, "marketplace.generate");
  m["marketplace.score_s"] = SpanSeconds(spans, "marketplace.score");
  m["fairness.evaluator.make_s"] =
      SpanSeconds(spans, "fairness.evaluator.make");
  m["fairness.evaluator.pair_ns"] =
      work.unfairness_pairs > 0
          ? SpanSeconds(spans, "fairness.evaluator.pairwise") * 1e9 /
                static_cast<double>(work.unfairness_pairs)
          : 0.0;
  m["fairness.report.pairs"] =
      static_cast<double>(work.unfairness_pairs + work.top_pairs);
  m["fairness.report.render_s"] = SpanSeconds(spans, "fairness.report.render");
  m["fairness.aggregate.ingest_s"] =
      SpanSeconds(spans, "fairness.aggregate.ingest");
  m["fairness.aggregate.audit_s"] =
      SpanSeconds(spans, "fairness.aggregate.audit");

  std::vector<Span> pass;
  for (const Span& s : spans) {
    if (s.start_ns >= pass_start_ns && s.end_ns <= pass_end_ns) {
      pass.push_back(s);
    }
  }
  const double pass_s = (pass_end_ns - pass_start_ns) * 1e-9;
  m["trace.span_coverage"] = pass_s > 0 ? CoveredSeconds(pass) / pass_s : 0.0;
}

void AddOverhead(double traced_s, double untraced_s, Outcome* outcome) {
  outcome->layer["trace.overhead_ratio"] =
      untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0;
}

void AddEvaluatorCounts(const PipelineCounts& c, Outcome* outcome) {
  const double hist_requests =
      static_cast<double>(c.histogram_builds + c.histogram_reuses);
  const double div_requests =
      static_cast<double>(c.divergence_evals + c.divergence_reuses);
  auto& m = outcome->layer;
  m["fairness.evaluator.histogram_builds"] =
      static_cast<double>(c.histogram_builds);
  m["fairness.evaluator.histogram_requests"] = hist_requests;
  m["fairness.evaluator.histogram_reuse_ratio"] =
      hist_requests > 0 ? c.histogram_reuses / hist_requests : 0.0;
  m["fairness.evaluator.divergence_evals"] =
      static_cast<double>(c.divergence_evals);
  m["fairness.evaluator.divergence_requests"] = div_requests;
  m["fairness.evaluator.divergence_reuse_ratio"] =
      div_requests > 0 ? c.divergence_reuses / div_requests : 0.0;
}

}  // namespace perfbench

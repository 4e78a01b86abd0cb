#ifndef FAIRRANK_PERFBENCH_MEASURE_H_
#define FAIRRANK_PERFBENCH_MEASURE_H_

// What a workload run records, and the helpers every workload shares:
// order statistics, registry counter deltas, output comparison.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Default workload seed, the bench harnesses' kDataSeed (EDBT 2019
/// opening day). Golden-value checks apply to this seed only.
inline constexpr uint64_t kDefaultSeed = 20190326;

struct RunConfig {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  bool trace = false;
  /// Directory for generated inputs and the span dump.
  std::string data_dir;

  bool golden() const { return seed == kDefaultSeed; }
};

/// What one run of a workload produced.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;  ///< One entry per set-up repetition.
  std::vector<double> op_ms;    ///< Wall of every timed operation.
  double measured_s = 0.0;      ///< Wall of the whole timed phase.
  /// Per-layer metrics; filled by traced runs only.
  std::map<std::string, double> layer;

  /// Counts one operation; a non-empty `problem` marks it failed and is
  /// printed.
  void Op(const std::string& what, const std::string& problem);
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]; the maximum when fewer than 1/(1-q)
/// values exist.
double Percentile(std::vector<double> values, double q);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// The evaluator's always-on fairrank_pipeline_* registry counters.
struct PipelineCounts {
  uint64_t histogram_builds = 0;
  uint64_t histogram_reuses = 0;
  uint64_t divergence_evals = 0;
  uint64_t divergence_reuses = 0;

  static PipelineCounts Read();
  PipelineCounts operator-(const PipelineCounts& before) const;
  PipelineCounts& operator+=(const PipelineCounts& other);
};

/// Work an operation did, as exact counts. Two repetitions of one
/// operation must produce equal counts.
struct WorkCounts {
  uint64_t nodes = 0;
  uint64_t histogram_builds = 0;
  uint64_t divergence_evals = 0;
  uint64_t report_pairs = 0;

  bool operator==(const WorkCounts& other) const = default;
  std::string ToString() const;
};

/// Pairs the report phase compares for a k-partition winner: all pairs for
/// the unfairness value, and all pairs again when worst pairs are listed.
uint64_t ReportPairs(uint64_t k, uint64_t num_worst_pairs);

/// "" when counts match, else a description naming `what`.
std::string CompareCounts(const std::string& what, const WorkCounts& expected,
                          const WorkCounts& actual);

/// A JSON report with every timing value replaced by '#' (keys mentioning
/// seconds, per_sec, or ending _s/_ms/_us/_ns) and the evaluator "cache"
/// object removed, so two renderings of one result compare equal.
std::string MaskTimings(const std::string& json);

/// "" when |actual - expected| <= tolerance, else a description.
std::string CheckNear(const std::string& what, double actual, double expected,
                      double tolerance);

/// Algorithms some workload runs; each has per-algorithm search and report
/// metrics.
const std::vector<std::string>& MeasuredAlgorithms();

/// Pairs the report phase compared, split by call.
struct ReportWork {
  uint64_t unfairness_pairs = 0;  ///< AveragePairwiseUnfairness.
  uint64_t top_pairs = 0;         ///< TopDivergentPairs.
};

/// Derives the span-based per-layer metrics of a traced pass that ran over
/// [pass_start_ns, pass_end_ns): layer busy/self time, per-algorithm search
/// and report time, evaluator make and per-pair time, report pairs, and the
/// share of the pass's wall that layer spans cover. Spans outside the pass
/// (set-up) count toward the per-name totals only.
void AddSpanMetrics(const std::vector<Span>& spans, int64_t pass_start_ns,
                    int64_t pass_end_ns, const ReportWork& work,
                    Outcome* outcome);

/// Records trace.overhead_ratio: traced / untraced wall of the same work,
/// minus one.
void AddOverhead(double traced_s, double untraced_s, Outcome* outcome);

/// Writes the fairness.evaluator count and reuse-ratio metrics.
void AddEvaluatorCounts(const PipelineCounts& counts, Outcome* outcome);

}  // namespace perfbench

#endif  // FAIRRANK_PERFBENCH_MEASURE_H_

#include "fairness/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <numeric>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "stats/emd.h"

namespace fairrank {

namespace {

/// Always-on pipeline counters of real work, bumped once per call (one
/// relaxed atomic add each). `/metrics` serves them as the per-phase
/// pipeline families.
struct PipelineMetrics {
  MetricCounter* histogram_builds;
  MetricCounter* emd_computations;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new PipelineMetrics();
      m->histogram_builds = registry.GetCounter(
          "fairrank_pipeline_histogram_builds_total",
          "Per-partition score histograms built");
      m->emd_computations = registry.GetCounter(
          "fairrank_pipeline_emd_computations_total",
          "Pairwise divergences computed");
      return m;
    }();
    return *metrics;
  }
};

/// Records one trace event named `name` covering its own lifetime; inert
/// when the options carry no trace.
class TraceEvent {
 public:
  TraceEvent(const EvaluatorOptions& options, const char* name)
      : options_(options),
        name_(name),
        start_ns_(options.trace != nullptr ? TraceNowNanos() : 0) {}
  ~TraceEvent() {
    if (options_.trace != nullptr) {
      options_.trace->AddEvent(name_, options_.trace_parent,
                               TraceNowNanos() - start_ns_);
    }
  }
  TraceEvent(const TraceEvent&) = delete;
  TraceEvent& operator=(const TraceEvent&) = delete;

 private:
  const EvaluatorOptions& options_;
  const char* name_;
  uint64_t start_ns_;
};

/// One call's divergence loop: an "emd" trace event, and `pairs` added to
/// the computation counter when the loop ends, early returns included.
struct PairLoop {
  explicit PairLoop(const EvaluatorOptions& options) : event(options, "emd") {}
  ~PairLoop() { PipelineMetrics::Get().emd_computations->Increment(pairs); }

  TraceEvent event;
  uint64_t pairs = 0;
};

Status DivergenceFault() {
  return Status::Internal("fault injection: divergence evaluation failed");
}

/// Average pairwise 1-D EMD of k >= 2 non-empty, same-shape histograms in
/// O(B·k log k), with no per-pair work.
///
/// EMD(a, b) = bin_width · Σ_b |CDF_a(b) − CDF_b(b)|, so the sum over all
/// pairs splits into one sum per bin. For one bin, sort the k CDF values
/// c_(1) ≤ … ≤ c_(k): the gap c_(r+1) − c_(r) lies between exactly r · (k − r)
/// pairs, so Σ_{i<j} |c_i − c_j| = Σ_r (c_(r+1) − c_(r)) · r · (k − r). Every
/// term is non-negative, so unlike Σ c_(r) · (2r − k − 1) nothing cancels.
/// CDFs come from whole-number cumulative counts over the total, each
/// correctly rounded; each bin is summed on its own before the bins are
/// added, which keeps the result within ~1e-15 relative of an exact sum.
double AveragePairwiseEmd(const std::vector<Histogram>& histograms) {
  const size_t k = histograms.size();
  const size_t num_bins = histograms.front().counts().size();
  // Column-major: column b holds CDF(b) of every histogram. The last CDF
  // value is exactly 1 everywhere (the counts sum to the total), so that
  // column contributes nothing and is left out.
  const size_t columns = num_bins - 1;
  std::vector<double> cdfs(columns * k);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<double>& counts = histograms[i].counts();
    const double total = histograms[i].total();
    double cumulative = 0.0;
    for (size_t b = 0; b < columns; ++b) {
      cumulative += counts[b];
      cdfs[b * k + i] = cumulative / total;
    }
  }
  double sum = 0.0;
  for (size_t b = 0; b < columns; ++b) {
    double* column = cdfs.data() + b * k;
    std::sort(column, column + k);
    double column_sum = 0.0;
    for (size_t r = 1; r < k; ++r) {
      column_sum +=
          (column[r] - column[r - 1]) * static_cast<double>(r * (k - r));
    }
    sum += column_sum;
  }
  const double num_pairs = static_cast<double>(k * (k - 1) / 2);
  return sum * histograms.front().bin_width() / num_pairs;
}

/// The histograms one pair loop compares; for "emd" also their PMFs,
/// normalized once (empty for an empty histogram, whose pairs fall back to
/// Divergence::Distance and its error).
struct PairInputs {
  PairInputs(std::vector<Histogram> histograms_in, const Divergence& d)
      : histograms(std::move(histograms_in)),
        divergence(d),
        emd(d.Name() == "emd"),
        faults(fault::armed()) {
    if (!emd) return;
    pmfs.reserve(histograms.size());
    for (const Histogram& histogram : histograms) {
      pmfs.push_back(histogram.empty() ? std::vector<double>()
                                       : histogram.Normalized());
    }
  }

  /// Divergence of histograms i and j, after the fault-injection hook. Does
  /// not bump the pipeline counter; callers count per call.
  StatusOr<double> Distance(size_t i, size_t j) const {
    if (faults && fault::OnDivergenceEval()) return DivergenceFault();
    if (emd && !pmfs[i].empty() && !pmfs[j].empty()) {
      return Emd1DMass(pmfs[i], pmfs[j], histograms[i].bin_width());
    }
    return divergence.Distance(histograms[i], histograms[j]);
  }

  std::vector<Histogram> histograms;
  std::vector<std::vector<double>> pmfs;
  const Divergence& divergence;
  /// The divergence is the paper's 1-D EMD: pairs run on PMFs.
  bool emd;
  /// fault::armed(), read once per call rather than once per pair.
  bool faults;
};

/// All pairwise divergences of `in`'s k >= 2 histograms, flattened in
/// upper-triangle order (see PairwiseDistances).
StatusOr<std::vector<double>> AllPairDistances(
    const PairInputs& in, const EvaluatorOptions& options) {
  const size_t k = in.histograms.size();
  const size_t num_pairs = k * (k - 1) / 2;
  // Flatten the upper triangle so pair m maps to (i, j) and distances land
  // in a fixed slot — the final reduction order is deterministic regardless
  // of thread count.
  std::vector<double> distances(num_pairs, 0.0);
  // The hot case — "emd", no empty partition, faults off — needs no Status
  // per pair: PairInputs::Distance would take the same Emd1DMass branch.
  const bool plain_emd =
      in.emd && !in.faults &&
      std::none_of(in.pmfs.begin(), in.pmfs.end(),
                   [](const std::vector<double>& pmf) { return pmf.empty(); });
  const double width = in.histograms.front().bin_width();
  PairLoop loop(options);
  std::atomic<uint64_t> computed{0};
  Status first_error;
  std::mutex error_mutex;
  // Once any pair fails, sibling chunks stop at their next iteration instead
  // of burning through the rest of their range — the result is discarded
  // anyway.
  std::atomic<bool> abort{false};
  bool complete = true;
  try {
    complete = ParallelForCancellable(
        num_pairs, options.num_threads, options.cancel, options.deadline,
        [&](size_t begin, size_t end) {
          // Locate (i, j) for `begin`, then walk forward.
          size_t m = 0;
          size_t i = 0;
          size_t j = 1;
          // Advance row-by-row; k is small relative to pair count.
          while (m + (k - 1 - i) <= begin) {
            m += k - 1 - i;
            ++i;
          }
          j = i + 1 + (begin - m);
          size_t p = begin;
          for (; p < end; ++p) {
            if (abort.load(std::memory_order_relaxed)) break;
            if (plain_emd) {
              distances[p] = Emd1DMass(in.pmfs[i], in.pmfs[j], width);
            } else {
              StatusOr<double> d = in.Distance(i, j);
              if (!d.ok()) {
                abort.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error.ok()) first_error = d.status();
                break;
              }
              distances[p] = *d;
            }
            if (++j == k) {
              ++i;
              j = i + 1;
            }
          }
          computed.fetch_add(p - begin, std::memory_order_relaxed);
        });
  } catch (const std::exception& e) {
    // Worker exceptions (including injected faults) are captured by
    // ParallelFor and rethrown here; keep them inside the Status API.
    loop.pairs = computed.load();
    return Status::Internal(std::string("pairwise unfairness worker: ") +
                            e.what());
  }
  loop.pairs = computed.load();
  FAIRRANK_RETURN_NOT_OK(first_error);
  if (!complete) {
    return options.cancel.cancel_requested()
               ? Status::Cancelled("pairwise unfairness cancelled")
               : Status::DeadlineExceeded(
                     "deadline expired during pairwise unfairness");
  }
  return distances;
}

}  // namespace

StatusOr<double> AveragePairwiseDivergence(std::vector<Histogram> histograms,
                                           const Divergence& divergence,
                                           const EvaluatorOptions& options) {
  if (histograms.size() < 2) return 0.0;
  // The closed form covers exactly the pairs the pair loop would run
  // through Emd1DMass without a Status: "emd", faults off, no empty
  // histogram.
  const bool closed_form =
      divergence.Name() == "emd" && !fault::armed() &&
      std::none_of(histograms.begin(), histograms.end(),
                   [](const Histogram& h) { return h.empty(); });
  if (!closed_form) {
    FAIRRANK_ASSIGN_OR_RETURN(
        std::vector<double> distances,
        AllPairDistances(PairInputs(std::move(histograms), divergence),
                         options));
    double sum = 0.0;
    for (double d : distances) sum += d;
    return sum / static_cast<double>(distances.size());
  }
  // Same checks, statuses and messages as the pair loop's stop between
  // blocks; the kernel below is short enough to run uninterrupted.
  if (options.cancel.cancel_requested()) {
    return Status::Cancelled("pairwise unfairness cancelled");
  }
  if (options.deadline.Expired()) {
    return Status::DeadlineExceeded(
        "deadline expired during pairwise unfairness");
  }
  TraceEvent event(options, "emd");
  return AveragePairwiseEmd(histograms);
}

void RecordHistogramBuilds(const EvaluatorOptions& options, uint64_t n,
                           uint64_t start_ns) {
  PipelineMetrics::Get().histogram_builds->Increment(n);
  if (options.trace != nullptr) {
    options.trace->AddEvent("histogram", options.trace_parent,
                            TraceNowNanos() - start_ns);
  }
}

StatusOr<UnfairnessEvaluator> UnfairnessEvaluator::Make(
    const Table* table, std::vector<double> scores,
    const EvaluatorOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("table is null");
  }
  if (scores.size() != table->num_rows()) {
    return Status::InvalidArgument(
        "got " + std::to_string(scores.size()) + " scores for " +
        std::to_string(table->num_rows()) + " rows");
  }
  if (options.num_bins < 1 || options.num_bins > kMaxBins) {
    return Status::InvalidArgument("num_bins must be in [1, " +
                                   std::to_string(kMaxBins) + "]");
  }
  if (!(options.score_lo < options.score_hi)) {
    return Status::InvalidArgument("empty score range");
  }
  size_t num_out_of_range = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i])) {
      return Status::InvalidArgument("score " + std::to_string(i) +
                                     " is not finite");
    }
    if (scores[i] < options.score_lo || scores[i] > options.score_hi) {
      ++num_out_of_range;
      if (options.out_of_range == OutOfRangePolicy::kReject) {
        return Status::InvalidArgument(
            "score " + std::to_string(i) + " (" + std::to_string(scores[i]) +
            ") is outside [" + std::to_string(options.score_lo) + ", " +
            std::to_string(options.score_hi) +
            "] and out_of_range is kReject");
      }
    }
  }
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<Divergence> divergence,
                            MakeDivergenceByName(options.divergence));
  const Histogram shape(options.num_bins, options.score_lo, options.score_hi);
  std::vector<uint16_t> bins;
  bins.reserve(scores.size());
  for (double score : scores) {
    bins.push_back(static_cast<uint16_t>(shape.BinOf(score)));
  }
  return UnfairnessEvaluator(table, std::move(scores), std::move(bins),
                             options, std::move(divergence),
                             num_out_of_range);
}

Histogram UnfairnessEvaluator::Build(const Partition& part) const {
  // Whole-number counts, so the same counts, total and clamped mass as
  // Histogram::Add over each score.
  std::vector<double> counts(static_cast<size_t>(options_.num_bins), 0.0);
  for (size_t row : part.rows) counts[bins_[row]] += 1.0;
  double clamped = 0.0;
  if (num_out_of_range_ > 0) {
    for (size_t row : part.rows) {
      const double score = scores_[row];
      if (score < options_.score_lo || score > options_.score_hi) {
        clamped += 1.0;
      }
    }
  }
  return Histogram::FromCounts(options_.num_bins, options_.score_lo,
                               options_.score_hi, std::move(counts), clamped)
      .value();
}

std::vector<Histogram> UnfairnessEvaluator::BuildHistograms(
    const std::vector<const Partition*>& parts) const {
  const uint64_t start_ns = options_.trace != nullptr ? TraceNowNanos() : 0;
  std::vector<Histogram> histograms;
  histograms.reserve(parts.size());
  for (const Partition* part : parts) histograms.push_back(Build(*part));
  RecordHistogramBuilds(options_, parts.size(), start_ns);
  return histograms;
}

Histogram UnfairnessEvaluator::BuildHistogram(
    const Partition& partition) const {
  return std::move(BuildHistograms({&partition}).front());
}

StatusOr<double> UnfairnessEvaluator::Distance(const Partition& a,
                                               const Partition& b) const {
  const PairInputs in(BuildHistograms({&a, &b}), *divergence_);
  PairLoop loop(options_);
  StatusOr<double> d = in.Distance(0, 1);
  if (d.ok()) ++loop.pairs;
  return d;
}

StatusOr<double> UnfairnessEvaluator::Distance(const Histogram& a,
                                               const Histogram& b) const {
  if (fault::OnDivergenceEval()) return DivergenceFault();
  PairLoop loop(options_);
  StatusOr<double> d = divergence_->Distance(a, b);
  if (d.ok()) ++loop.pairs;
  return d;
}

StatusOr<std::vector<double>> UnfairnessEvaluator::PairwiseDistances(
    const Partitioning& partitioning) const {
  if (partitioning.size() < 2) return std::vector<double>();
  std::vector<const Partition*> parts;
  parts.reserve(partitioning.size());
  for (const Partition& p : partitioning) parts.push_back(&p);
  return AllPairDistances(PairInputs(BuildHistograms(parts), *divergence_),
                          options_);
}

StatusOr<double> UnfairnessEvaluator::AveragePairwiseUnfairness(
    const Partitioning& partitioning) const {
  if (partitioning.size() < 2) return 0.0;
  std::vector<const Partition*> parts;
  parts.reserve(partitioning.size());
  for (const Partition& p : partitioning) parts.push_back(&p);
  return AveragePairwiseDivergence(BuildHistograms(parts), *divergence_,
                                   options_);
}

StatusOr<std::vector<DivergentPair>> TopDivergentPairs(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t k) {
  std::vector<DivergentPair> pairs;
  if (partitioning.size() < 2 || k == 0) return pairs;
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> distances,
                            eval.PairwiseDistances(partitioning));
  // Distance descending, then pair slot ascending: the order a stable sort
  // by distance gives, selected without sorting every pair.
  std::vector<size_t> order(distances.size());
  std::iota(order.begin(), order.end(), size_t{0});
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&distances](size_t a, size_t b) {
                      return distances[a] > distances[b] ||
                             (distances[a] == distances[b] && a < b);
                    });
  const size_t n = partitioning.size();
  pairs.reserve(k);
  for (size_t r = 0; r < k; ++r) {
    // Slot m of the flattened triangle is pair (i, j): row i starts at
    // slot `start` and holds n - 1 - i pairs.
    const size_t m = order[r];
    size_t i = 0;
    size_t start = 0;
    while (start + (n - 1 - i) <= m) {
      start += n - 1 - i;
      ++i;
    }
    pairs.push_back({i, i + 1 + (m - start), distances[m]});
  }
  return pairs;
}

StatusOr<double> UnfairnessEvaluator::AverageWithSiblings(
    const Partition& current, const std::vector<Partition>& siblings) const {
  if (siblings.empty()) return 0.0;
  std::vector<const Partition*> parts{&current};
  for (const Partition& s : siblings) parts.push_back(&s);
  const PairInputs in(BuildHistograms(parts), *divergence_);
  PairLoop loop(options_);
  double sum = 0.0;
  for (size_t j = 1; j < parts.size(); ++j) {
    FAIRRANK_ASSIGN_OR_RETURN(double d, in.Distance(0, j));
    ++loop.pairs;
    sum += d;
  }
  return sum / static_cast<double>(siblings.size());
}

StatusOr<double> UnfairnessEvaluator::AverageChildrenWithSiblings(
    const std::vector<Partition>& children,
    const std::vector<Partition>& siblings) const {
  // Children occupy indices [0, c), siblings [c, c + s).
  const size_t c = children.size();
  const size_t total = c + siblings.size();
  std::vector<const Partition*> parts;
  parts.reserve(total);
  for (const Partition& p : children) parts.push_back(&p);
  for (const Partition& p : siblings) parts.push_back(&p);
  const PairInputs in(BuildHistograms(parts), *divergence_);
  PairLoop loop(options_);
  double sum = 0.0;
  auto add = [&](size_t i, size_t j) -> Status {
    FAIRRANK_ASSIGN_OR_RETURN(double d, in.Distance(i, j));
    ++loop.pairs;
    sum += d;
    return Status::OK();
  };
  // Child-child pairs.
  for (size_t i = 0; i < c; ++i) {
    for (size_t j = i + 1; j < c; ++j) FAIRRANK_RETURN_NOT_OK(add(i, j));
  }
  // Child-sibling pairs.
  for (size_t i = 0; i < c; ++i) {
    for (size_t j = c; j < total; ++j) FAIRRANK_RETURN_NOT_OK(add(i, j));
  }
  if (options_.sibling_comparison == SiblingComparison::kAllPairs) {
    // Also count sibling-sibling pairs: the result is then the average
    // pairwise unfairness of (children ∪ siblings).
    for (size_t i = c; i < total; ++i) {
      for (size_t j = i + 1; j < total; ++j) FAIRRANK_RETURN_NOT_OK(add(i, j));
    }
  }
  if (loop.pairs == 0) return 0.0;
  return sum / static_cast<double>(loop.pairs);
}

}  // namespace fairrank

#ifndef FAIRRANK_FAIRNESS_EVALUATOR_H_
#define FAIRRANK_FAIRNESS_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "data/table.h"
#include "fairness/partition.h"
#include "stats/divergence.h"
#include "stats/histogram.h"

namespace fairrank {

/// Two readings of Algorithm 2's `averageEMD(children, siblings, f)` — the
/// paper's prose ("the average pairwise EMD of its potential children with
/// the partition's siblings") is ambiguous; both are implemented and the
/// choice is an option so the difference can be studied
/// (bench/ablation_divergence reports it).
enum class SiblingComparison {
  /// Average over pairs within (children ∪ siblings) that involve at least
  /// one child (child-child and child-sibling pairs). This is the natural
  /// counterpart of `averageEMD(current, siblings)` = pairs involving
  /// `current`, and the default.
  kChildPairs,
  /// Average over all pairs of (children ∪ siblings), i.e. the average
  /// pairwise unfairness of the candidate partitioning after replacing the
  /// partition by its children (sibling-sibling pairs included).
  kAllPairs,
};

/// What to do when scores fall outside [score_lo, score_hi]. Histograms
/// clamp such values into the edge bins; before this policy existed the
/// clamping was silent and quietly distorted the edge bins.
enum class OutOfRangePolicy {
  /// Count the offenders and surface the count via
  /// UnfairnessEvaluator::num_out_of_range() (reports warn on it). Default:
  /// repaired or generated score vectors may legitimately graze the range.
  kCount,
  /// Reject the score vector in Make with InvalidArgument.
  kReject,
};

/// Largest supported EvaluatorOptions::num_bins: the evaluator stores each
/// row's bin in 16 bits.
inline constexpr int kMaxBins = 1 << 16;

/// Configuration of the unfairness measure.
struct EvaluatorOptions {
  /// Histogram bin count over the score range ("equal bins over the range
  /// of f"), in [1, kMaxBins].
  int num_bins = 10;
  /// Score range of f; the paper's functions map into [0, 1].
  double score_lo = 0.0;
  double score_hi = 1.0;
  SiblingComparison sibling_comparison = SiblingComparison::kChildPairs;
  /// Divergence name resolved via MakeDivergenceByName; "emd" reproduces
  /// the paper.
  std::string divergence = "emd";
  /// Worker threads for the pair loop of PairwiseDistances, which
  /// TopDivergentPairs and the non-"emd" AveragePairwiseUnfairness run on.
  /// The "emd" average is a serial closed form. 1 = fully serial (default);
  /// results are bit-identical across thread counts (per-pair sums are
  /// accumulated in a deterministic order).
  int num_threads = 1;
  /// Deadline / cancellation honored by PairwiseDistances and
  /// AveragePairwiseUnfairness: the pair loop stops between blocks once
  /// either fires, and the "emd" closed form checks both once before it
  /// runs; the call then returns DeadlineExceeded / Cancelled.
  /// Both are inert by default. Keep them inert on evaluators used for
  /// *reporting* — only the search evaluator should be interruptible.
  Deadline deadline;
  CancellationToken cancel;
  /// Policy for scores outside [score_lo, score_hi]; see OutOfRangePolicy.
  OutOfRangePolicy out_of_range = OutOfRangePolicy::kCount;
  /// Borrowed per-request trace (see common/trace.h). When set, each public
  /// call records one "histogram" event covering its histogram builds and
  /// one "emd" event covering its divergence loop, under `trace_parent`;
  /// per-pair work shows up in the pipeline counters, not as span events.
  /// Null = tracing off. The auditor wires this from its ExecutionLimits.
  TraceContext* trace = nullptr;
  int64_t trace_parent = -1;
};

/// Computes unfairness(P, f) (Definition 2): the average pairwise divergence
/// between the score histograms of a partitioning's partitions. Owns the
/// scores of every row under the audited scoring function, builds per-
/// partition histograms on demand, and exposes the sibling-relative averages
/// Algorithm 2 needs.
///
/// There is one evaluation path and it memoizes nothing: each public call
/// builds the histograms it needs once, straight from rows, and
/// AveragePairwiseUnfairness then hands them to AveragePairwiseDivergence
/// below, the gate that searches over demographic cells share. Every other
/// call runs a pair loop: for "emd" Emd1DMass over PMFs normalized once per
/// call, with no allocation per pair; other divergences go through
/// Divergence::Distance. The pair loops are bit-identical to each other:
/// the same counts[i] / total PMFs, the same Emd1DMass, the same summation
/// order. Searches that revisit partitions (exhaustive) keep their own memo
/// over BuildHistogram and the histogram overload of Distance.
///
/// Thread-compatible: logically const after construction; all accessors are
/// const.
class UnfairnessEvaluator {
 public:
  /// `table` must outlive the evaluator; `scores` must have one entry per
  /// table row. Fails on size mismatch, bad options, or unknown divergence.
  static StatusOr<UnfairnessEvaluator> Make(const Table* table,
                                            std::vector<double> scores,
                                            const EvaluatorOptions& options);

  /// Score histogram of one partition.
  Histogram BuildHistogram(const Partition& partition) const;

  /// Divergence between two partitions' histograms. Both must be non-empty
  /// (guaranteed for splitter-produced partitions).
  StatusOr<double> Distance(const Partition& a, const Partition& b) const;

  /// Divergence between two histograms built by BuildHistogram, counted and
  /// fault-injected like every pair the evaluator computes.
  StatusOr<double> Distance(const Histogram& a, const Histogram& b) const;

  /// unfairness(P, f): average pairwise divergence over all partition pairs.
  /// A partitioning with fewer than two partitions has unfairness 0.
  /// Builds the partitions' histograms and runs AveragePairwiseDivergence
  /// with this evaluator's divergence and options.
  StatusOr<double> AveragePairwiseUnfairness(
      const Partitioning& partitioning) const;

  /// Algorithm 2's averageEMD(current, siblings, f): mean divergence between
  /// `current` and each sibling; 0 when `siblings` is empty.
  StatusOr<double> AverageWithSiblings(
      const Partition& current, const std::vector<Partition>& siblings) const;

  /// Algorithm 2's averageEMD(children, siblings, f), per the configured
  /// SiblingComparison reading; 0 when there are fewer than two histograms
  /// or no qualifying pairs.
  StatusOr<double> AverageChildrenWithSiblings(
      const std::vector<Partition>& children,
      const std::vector<Partition>& siblings) const;

  /// All pairwise divergences of `partitioning`, flattened in upper-triangle
  /// order: pair (i, j), i < j, lands at a fixed slot, whatever the thread
  /// count. Honors the deadline/cancel options; fewer than two partitions
  /// yields an empty vector.
  StatusOr<std::vector<double>> PairwiseDistances(
      const Partitioning& partitioning) const;

  /// Number of input scores outside [score_lo, score_hi] (0 under kReject,
  /// which refuses such inputs). Reports surface a warning when nonzero.
  size_t num_out_of_range() const { return num_out_of_range_; }

  const Table& table() const { return *table_; }
  const std::vector<double>& scores() const { return scores_; }
  const EvaluatorOptions& options() const { return options_; }
  const Divergence& divergence() const { return *divergence_; }

 private:
  UnfairnessEvaluator(const Table* table, std::vector<double> scores,
                      std::vector<uint16_t> bins,
                      const EvaluatorOptions& options,
                      std::unique_ptr<Divergence> divergence,
                      size_t num_out_of_range)
      : table_(table),
        scores_(std::move(scores)),
        bins_(std::move(bins)),
        options_(options),
        divergence_(std::move(divergence)),
        num_out_of_range_(num_out_of_range) {}

  /// The score histogram of `part`, built from its rows.
  Histogram Build(const Partition& part) const;

  /// Builds the histograms of `parts`, in order, as one "histogram" trace
  /// event, and counts them in the pipeline counter.
  std::vector<Histogram> BuildHistograms(
      const std::vector<const Partition*>& parts) const;

  const Table* table_;
  std::vector<double> scores_;
  /// Histogram bin of every row's score (Histogram::BinOf), so a build is
  /// one increment per row.
  std::vector<uint16_t> bins_;
  EvaluatorOptions options_;
  std::unique_ptr<Divergence> divergence_;
  size_t num_out_of_range_ = 0;
};

/// The evaluation gate every search shares: unfairness (Definition 2) of
/// the partitions with score histograms `histograms`, 0 for fewer than two.
/// For "emd" with faults off and no empty histogram, a closed form in
/// O(B·k log k) (sorted CDF columns; see evaluator.cc) within 1e-14
/// relative of an exact average; otherwise the mean of PairwiseDistances'
/// pair loop, fault hook included. Honors the options' deadline,
/// cancellation (DeadlineExceeded / Cancelled), threads and trace, and
/// counts its pairs; the caller counts the histograms.
StatusOr<double> AveragePairwiseDivergence(std::vector<Histogram> histograms,
                                           const Divergence& divergence,
                                           const EvaluatorOptions& options);

/// Records `n` partition histograms built without an evaluator (summed from
/// cells) as the evaluator records its own: in the pipeline counter and as
/// one "histogram" trace event begun at `start_ns` under `options.trace`.
void RecordHistogramBuilds(const EvaluatorOptions& options, uint64_t n,
                           uint64_t start_ns);

/// One highly divergent partition pair — the "who exactly is treated
/// differently from whom" answer an auditor reads off first.
struct DivergentPair {
  size_t index_a = 0;  ///< Index into the partitioning.
  size_t index_b = 0;
  double distance = 0.0;
};

/// The k partition pairs with the largest pairwise divergence, sorted
/// descending (ties broken by pair order, deterministic). k larger than the
/// number of pairs is clamped; a partitioning with < 2 partitions yields an
/// empty list. Runs PairwiseDistances once and partially sorts its slots.
StatusOr<std::vector<DivergentPair>> TopDivergentPairs(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t k);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_EVALUATOR_H_

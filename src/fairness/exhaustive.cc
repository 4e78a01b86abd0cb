#include "fairness/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "fairness/beam.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

/// One unresolved node of the partitioning tree being enumerated: a
/// partition, its memo id, and the attributes still allowed on its subtree.
struct PendingNode {
  Partition partition;
  std::vector<size_t> attrs;
  size_t id = 0;
};

/// The search's private memo, alive for one Run and never shared, so it
/// takes no lock. Each distinct partition gets a dense id keyed by its
/// sorted split constraints: equal constraint sets select equal row sets,
/// whatever the split order. The memo keeps one histogram per id and a
/// lazily filled distance matrix indexed (first, second) in call order, so
/// a memoized average is bit-identical to the mean of PairwiseDistances.
/// (For "emd", AveragePairwiseUnfairness is a closed form that can differ
/// from it in the last ~1e-12 relative.)
class PartitionMemo {
 public:
  explicit PartitionMemo(const UnfairnessEvaluator& eval) : eval_(eval) {}

  /// Sets `*id` to the partition's id. A first sighting builds the
  /// histogram and charges the memo's growth, including the matrix row and
  /// column the id may fill, through `context`; the returned reason is the
  /// charge's verdict (the id is valid either way).
  ExhaustionReason Intern(const Partition& partition,
                          const ExecutionContext& context, size_t* id) {
    std::vector<std::pair<size_t, int>> key;
    key.reserve(partition.path.size());
    for (const SplitStep& step : partition.path) {
      key.emplace_back(step.attr_index, step.group_index);
    }
    std::sort(key.begin(), key.end());
    const size_t next = histograms_.size();
    auto [it, inserted] = ids_.emplace(std::move(key), next);
    *id = it->second;
    if (!inserted) return ExhaustionReason::kNone;
    histograms_.push_back(eval_.BuildHistogram(partition));
    distances_.emplace_back();
    const Histogram& h = histograms_.back();
    return context.CheckMemory(
        sizeof(Histogram) + h.counts().size() * sizeof(double) +
        it->first.size() * sizeof(it->first.front()) +
        2 * (next + 1) * sizeof(double));
  }

  /// Average pairwise divergence of the partitions `ids`, summed over
  /// (i, j), i < j, in the order PairwiseDistances flattens them.
  StatusOr<double> AveragePairwise(const std::vector<size_t>& ids) {
    const size_t k = ids.size();
    if (k < 2) return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        FAIRRANK_ASSIGN_OR_RETURN(double d, Distance(ids[i], ids[j]));
        sum += d;
      }
    }
    return sum / static_cast<double>(k * (k - 1) / 2);
  }

 private:
  StatusOr<double> Distance(size_t a, size_t b) {
    std::vector<double>& row = distances_[a];
    if (b >= row.size()) {
      row.resize(histograms_.size(), std::numeric_limits<double>::quiet_NaN());
    }
    // NaN marks "not computed yet"; a divergence never returns NaN (its
    // failures are Statuses), so a stored value is never recomputed.
    if (std::isnan(row[b])) {
      FAIRRANK_ASSIGN_OR_RETURN(row[b],
                                eval_.Distance(histograms_[a], histograms_[b]));
    }
    return row[b];
  }

  const UnfairnessEvaluator& eval_;
  std::map<std::vector<std::pair<size_t, int>>, size_t> ids_;
  std::vector<Histogram> histograms_;
  std::vector<std::vector<double>> distances_;
};

class ExhaustiveAlgorithm : public PartitioningAlgorithm {
 public:
  explicit ExhaustiveAlgorithm(const ExhaustiveOptions& options)
      : options_(options) {}

  std::string Name() const override { return "exhaustive"; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    evaluated_ = 0;
    best_avg_ = -1.0;
    best_.clear();
    trip_ = ExhaustionReason::kNone;
    context_ = &context;
    stopwatch_.Restart();
    memo_.emplace(eval);
    leaf_ids_.clear();

    Partition root = MakeRootPartition(eval.table().num_rows());
    std::vector<size_t> attrs_copy = attrs;  // For the beam fallback.
    std::vector<PendingNode> pending;
    pending.push_back({root, std::move(attrs)});
    trip_ = memo_->Intern(root, context, &pending.back().id);
    Partitioning leaves;
    FAIRRANK_RETURN_NOT_OK(Recurse(eval, &pending, &leaves));
    memo_.reset();

    SearchResult result;
    result.nodes_visited = evaluated_;
    // The root partitioning is the first one enumerated, so best_ is only
    // empty when the budget tripped before a single evaluation.
    if (best_.empty()) best_ = Partitioning{root};
    if (trip_ == ExhaustionReason::kNone) {
      result.partitioning = std::move(best_);
      return result;
    }
    result.truncated = true;
    result.reason = trip_;
    if (options_.fallback_to_beam && trip_ == ExhaustionReason::kNodeBudget) {
      FallbackToBeam(eval, std::move(attrs_copy), context, &result);
    }
    if (result.partitioning.empty()) result.partitioning = std::move(best_);
    return result;
  }

 private:
  /// Reruns the search as a width-bounded beam under the same deadline and
  /// cancellation but without the exhausted node budget, keeping whichever
  /// of {enumeration best-so-far, beam result} scores higher. Fallback
  /// failures are swallowed: the enumeration's best-so-far already stands.
  void FallbackToBeam(const UnfairnessEvaluator& eval,
                      std::vector<size_t> attrs,
                      const ExecutionContext& context, SearchResult* result) {
    std::unique_ptr<PartitioningAlgorithm> beam =
        MakeBeamAlgorithm(options_.fallback_beam_width);
    StatusOr<SearchResult> beam_result =
        beam->Run(eval, std::move(attrs), context.WithoutBudget());
    if (!beam_result.ok()) return;
    result->nodes_visited += beam_result->nodes_visited;
    StatusOr<double> beam_avg =
        eval.AveragePairwiseUnfairness(beam_result->partitioning);
    if (!beam_avg.ok()) return;
    if (*beam_avg > best_avg_) {
      result->partitioning = std::move(beam_result->partitioning);
    }
  }

  Status Recurse(const UnfairnessEvaluator& eval,
                 std::vector<PendingNode>* pending, Partitioning* leaves) {
    if (trip_ != ExhaustionReason::kNone) return Status::OK();  // Unwinding.
    if (pending->empty()) {
      // A complete partitioning: score it against the incumbent.
      ++evaluated_;
      ExhaustionReason why = context_->CheckNodes(1);
      if (why == ExhaustionReason::kNone &&
          evaluated_ > options_.max_partitionings) {
        why = ExhaustionReason::kNodeBudget;
      }
      if (why == ExhaustionReason::kNone && options_.max_seconds > 0.0 &&
          stopwatch_.ElapsedSeconds() > options_.max_seconds) {
        why = ExhaustionReason::kDeadline;
      }
      if (why != ExhaustionReason::kNone) {
        trip_ = why;
        return Status::OK();
      }
      ScopedSpan evaluate_span(context_->trace(), "evaluate",
                               context_->trace_parent());
      StatusOr<double> avg = memo_->AveragePairwise(leaf_ids_);
      if (!avg.ok()) {
        if (!IsExhaustion(avg.status())) return avg.status();
        trip_ = ExhaustionReasonFromStatus(avg.status());
        return Status::OK();
      }
      if (*avg > best_avg_) {
        best_avg_ = *avg;
        best_ = *leaves;
      }
      return Status::OK();
    }

    PendingNode node = std::move(pending->back());
    pending->pop_back();

    // Option 1: close this node as a leaf.
    leaves->push_back(node.partition);
    leaf_ids_.push_back(node.id);
    FAIRRANK_RETURN_NOT_OK(Recurse(eval, pending, leaves));
    leaves->pop_back();
    leaf_ids_.pop_back();

    // Option 2: split on each remaining attribute with >= 2 represented
    // values (single-child splits would re-enumerate the same partitioning).
    for (size_t pos = 0;
         pos < node.attrs.size() && trip_ == ExhaustionReason::kNone; ++pos) {
      std::vector<Partition> children;
      {
        ScopedSpan expand_span(context_->trace(), "expand",
                               context_->trace_parent());
        children = SplitPartition(eval.table(), node.partition,
                                  node.attrs[pos]);
      }
      if (children.size() < 2) continue;
      std::vector<size_t> remaining = node.attrs;
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
      size_t old_size = pending->size();
      for (Partition& child : children) {
        size_t id = 0;
        ExhaustionReason why = memo_->Intern(child, *context_, &id);
        if (why != ExhaustionReason::kNone) trip_ = why;
        pending->push_back({std::move(child), remaining, id});
      }
      if (trip_ == ExhaustionReason::kNone) {
        FAIRRANK_RETURN_NOT_OK(Recurse(eval, pending, leaves));
      }
      pending->resize(old_size);
    }

    pending->push_back(std::move(node));
    return Status::OK();
  }

  ExhaustiveOptions options_;
  const ExecutionContext* context_ = nullptr;
  std::optional<PartitionMemo> memo_;  ///< Lives for one Run.
  std::vector<size_t> leaf_ids_;       ///< Memo ids of `leaves`, in order.
  ExhaustionReason trip_ = ExhaustionReason::kNone;
  uint64_t evaluated_ = 0;
  double best_avg_ = -1.0;
  Partitioning best_;
  Stopwatch stopwatch_;
};

uint64_t CountRecurse(const Table& table, std::vector<PendingNode>* pending,
                      uint64_t cap, uint64_t count_so_far) {
  if (count_so_far >= cap) return cap;
  if (pending->empty()) return count_so_far + 1;

  PendingNode node = std::move(pending->back());
  pending->pop_back();

  uint64_t count = CountRecurse(table, pending, cap, count_so_far);

  for (size_t pos = 0; pos < node.attrs.size() && count < cap; ++pos) {
    std::vector<Partition> children =
        SplitPartition(table, node.partition, node.attrs[pos]);
    if (children.size() < 2) continue;
    std::vector<size_t> remaining = node.attrs;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
    size_t old_size = pending->size();
    for (Partition& child : children) {
      pending->push_back({std::move(child), remaining});
    }
    count = CountRecurse(table, pending, cap, count);
    pending->resize(old_size);
  }

  pending->push_back(std::move(node));
  return count;
}

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeExhaustiveAlgorithm(
    const ExhaustiveOptions& options) {
  return std::make_unique<ExhaustiveAlgorithm>(options);
}

uint64_t CountHierarchicalPartitionings(const UnfairnessEvaluator& eval,
                                        std::vector<size_t> attrs,
                                        uint64_t cap) {
  std::vector<PendingNode> pending;
  pending.push_back(
      {MakeRootPartition(eval.table().num_rows()), std::move(attrs)});
  return CountRecurse(eval.table(), &pending, cap, 0);
}

}  // namespace fairrank

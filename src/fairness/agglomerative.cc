#include "fairness/agglomerative.h"

#include <algorithm>
#include <limits>

#include "common/trace.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

class AgglomerativeAlgorithm : public PartitioningAlgorithm {
 public:
  std::string Name() const override { return "merge"; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    SearchResult result;
    // Start from the full partitioning. Each split level is one node; a trip
    // here degrades to the partial split reached so far (still valid).
    Partitioning current{MakeRootPartition(eval.table().num_rows())};
    {
      ScopedSpan expand_span(context.trace(), "expand",
                             context.trace_parent());
      for (size_t attr : attrs) {
        ExhaustionReason why = context.CheckNodes(1);
        if (why != ExhaustionReason::kNone) {
          result.partitioning = std::move(current);
          return TruncatedResult(std::move(result), why);
        }
        ++result.nodes_visited;
        current = SplitAll(eval.table(), current, attr);
      }
    }
    const size_t k = current.size();
    if (k < 3) {  // Nothing to merge (k=2 merging gives k=1).
      result.partitioning = std::move(current);
      return result;
    }

    // The k x k distance matrix is the algorithm's big allocation — an
    // allocation checkpoint guards it; on a trip the full partitioning is
    // returned without a merge trajectory.
    ExhaustionReason why =
        context.CheckMemory(k * k * sizeof(double) + k * sizeof(Histogram));
    if (why != ExhaustionReason::kNone) {
      result.partitioning = std::move(current);
      return TruncatedResult(std::move(result), why);
    }

    // Histograms and the pairwise distance matrix. `alive[i]` marks live
    // clusters; merged clusters are tombstoned instead of erased so the
    // matrix stays index-stable.
    ScopedSpan evaluate_span(context.trace(), "evaluate",
                             context.trace_parent());
    std::vector<Histogram> hists;
    hists.reserve(k);
    for (const Partition& p : current) hists.push_back(eval.BuildHistogram(p));
    std::vector<bool> alive(k, true);
    std::vector<std::vector<double>> dist(k, std::vector<double>(k, 0.0));
    double sum = 0.0;  // Sum of pairwise distances over live pairs.
    for (size_t i = 0; i < k; ++i) {
      // One matrix row = k-i-1 distance evaluations; a trip mid-build
      // degrades to the full partitioning (no usable trajectory yet).
      why = context.CheckNodes(k - i - 1);
      if (why != ExhaustionReason::kNone) {
        result.partitioning = std::move(current);
        return TruncatedResult(std::move(result), why);
      }
      result.nodes_visited += k - i - 1;
      for (size_t j = i + 1; j < k; ++j) {
        StatusOr<double> d = TracedDistance(eval, context, hists[i], hists[j]);
        if (!d.ok()) {
          result.partitioning = std::move(current);
          return DegradeOnExhaustion(std::move(result), d.status());
        }
        dist[i][j] = dist[j][i] = *d;
        sum += *d;
      }
    }
    size_t live = k;
    double current_avg = sum / PairCount(live);

    // Unlike the top-down heuristics, the merge trajectory is deliberately
    // run all the way down to two clusters: the average pairwise divergence
    // is not monotone along it (collapsing same-treatment cells first
    // *lowers* the average before the final cross-treatment structure
    // emerges), so the best partitioning is the best snapshot along the
    // trajectory, not the first local optimum.
    Partitioning best = Snapshot(current, alive);
    double best_avg = current_avg;

    while (live > 2) {
      // A merge iteration re-evaluates up to `live` distances against the
      // combined cluster; a trip returns the best snapshot so far.
      why = context.CheckNodes(live);
      if (why != ExhaustionReason::kNone) {
        result.partitioning = std::move(best);
        return TruncatedResult(std::move(result), why);
      }
      result.nodes_visited += live;

      // Merge the closest live pair (classic agglomerative step; with ties
      // broken toward the smallest indices for determinism).
      size_t best_i = 0;
      size_t best_j = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < k; ++i) {
        if (!alive[i]) continue;
        for (size_t j = i + 1; j < k; ++j) {
          if (!alive[j]) continue;
          if (dist[i][j] < best_d) {
            best_d = dist[i][j];
            best_i = i;
            best_j = j;
          }
        }
      }

      // Merged histogram = count sum.
      Histogram combined = hists[best_i];
      FAIRRANK_RETURN_NOT_OK(combined.MergeWith(hists[best_j]));

      // Update the distance matrix and the pair sum.
      double new_sum = sum - best_d;
      for (size_t m = 0; m < k; ++m) {
        if (!alive[m] || m == best_i || m == best_j) continue;
        StatusOr<double> d = TracedDistance(eval, context, combined, hists[m]);
        if (!d.ok()) {
          result.partitioning = std::move(best);
          return DegradeOnExhaustion(std::move(result), d.status());
        }
        new_sum -= dist[best_i][m];
        new_sum -= dist[best_j][m];
        new_sum += *d;
        dist[best_i][m] = dist[m][best_i] = *d;
      }

      // Commit: best_i absorbs best_j.
      Partition& a = current[best_i];
      Partition& b = current[best_j];
      std::vector<size_t> rows;
      rows.reserve(a.rows.size() + b.rows.size());
      std::merge(a.rows.begin(), a.rows.end(), b.rows.begin(), b.rows.end(),
                 std::back_inserter(rows));
      if (a.merged_paths.empty()) a.merged_paths.push_back(a.path);
      if (b.merged_paths.empty()) {
        a.merged_paths.push_back(b.path);
      } else {
        a.merged_paths.insert(a.merged_paths.end(), b.merged_paths.begin(),
                              b.merged_paths.end());
      }
      a.path.clear();
      a.rows = std::move(rows);
      hists[best_i] = std::move(combined);
      alive[best_j] = false;
      sum = new_sum;
      --live;
      current_avg = sum / PairCount(live);

      if (current_avg > best_avg) {
        best_avg = current_avg;
        best = Snapshot(current, alive);
      }
    }
    result.partitioning = std::move(best);
    return result;
  }

 private:
  /// The merge loops call the divergence directly on their merged-cell
  /// histograms, so "emd" events are recorded here instead of in the
  /// evaluator.
  static StatusOr<double> TracedDistance(const UnfairnessEvaluator& eval,
                                         const ExecutionContext& context,
                                         const Histogram& a,
                                         const Histogram& b) {
    if (context.trace() == nullptr) return eval.divergence().Distance(a, b);
    const uint64_t start_ns = TraceNowNanos();
    StatusOr<double> d = eval.divergence().Distance(a, b);
    context.trace()->AddEvent("emd", context.trace_parent(),
                              TraceNowNanos() - start_ns);
    return d;
  }

  static double PairCount(size_t live) {
    return static_cast<double>(live) * static_cast<double>(live - 1) / 2.0;
  }

  static Partitioning Snapshot(const Partitioning& current,
                               const std::vector<bool>& alive) {
    Partitioning out;
    for (size_t i = 0; i < current.size(); ++i) {
      if (alive[i]) out.push_back(current[i]);
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeAgglomerativeAlgorithm() {
  return std::make_unique<AgglomerativeAlgorithm>();
}

}  // namespace fairrank

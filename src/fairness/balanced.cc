#include "fairness/balanced.h"

#include <numeric>

#include "common/trace.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

/// Algorithm 1's split(current, a) over cells: each partition's cells
/// regrouped by their group on attribute position `attr`.
std::vector<CellPartition> SplitCells(const CellIndex& index,
                                      const std::vector<CellPartition>& parts,
                                      size_t attr) {
  const size_t num_attrs = index.num_attrs();
  const int num_groups = index.num_groups[attr];
  std::vector<std::vector<size_t>> groups(static_cast<size_t>(num_groups));
  std::vector<CellPartition> children;
  for (const CellPartition& part : parts) {
    for (size_t cell : part.cells) {
      groups[static_cast<size_t>(index.groups[cell * num_attrs + attr])]
          .push_back(cell);
    }
    for (int g = 0; g < num_groups; ++g) {
      std::vector<size_t>& cells = groups[static_cast<size_t>(g)];
      if (cells.empty()) continue;
      CellPartition child;
      child.path = part.path;
      child.path.push_back({attr, g});
      child.cells = std::move(cells);
      cells.clear();
      children.push_back(std::move(child));
    }
  }
  return children;
}

/// Unfairness of `parts` through the shared evaluation gate.
StatusOr<double> Evaluate(const CellIndex& index,
                          const std::vector<CellPartition>& parts,
                          const Divergence& divergence,
                          const EvaluatorOptions& options) {
  if (parts.size() < 2) return 0.0;
  const uint64_t start_ns = options.trace != nullptr ? TraceNowNanos() : 0;
  std::vector<Histogram> histograms;
  histograms.reserve(parts.size());
  for (const CellPartition& part : parts) {
    histograms.push_back(index.HistogramOf(part.cells));
  }
  RecordHistogramBuilds(options, parts.size(), start_ns);
  return AveragePairwiseDivergence(std::move(histograms), divergence, options);
}

class BalancedAlgorithm : public PartitioningAlgorithm {
 public:
  BalancedAlgorithm(std::string name,
                    std::unique_ptr<AttributeSelector> selector)
      : name_(std::move(name)), selector_(std::move(selector)) {}

  std::string Name() const override { return name_; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    SearchResult result;
    result.partitioning = {MakeRootPartition(eval.table().num_rows())};
    if (attrs.empty()) return result;

    const EvaluatorOptions& options = eval.options();
    StatusOr<CellIndex> index =
        BuildCellIndex(eval.table(), eval.scores(), attrs, options.num_bins,
                       options.score_lo, options.score_hi, context);
    if (!index.ok()) return DegradeOnExhaustion(std::move(result),
                                                index.status());
    FAIRRANK_ASSIGN_OR_RETURN(
        CellSearchResult search,
        SearchBalancedCells(*index, *selector_, eval.divergence(), options,
                            context));
    // Replaying the splits over rows yields the cell partitions, in order.
    for (size_t pos : search.attributes_used) {
      result.partitioning =
          SplitAll(eval.table(), result.partitioning, attrs[pos]);
    }
    result.nodes_visited = search.nodes_visited;
    return TruncatedResult(std::move(result), search.reason);
  }

 private:
  std::string name_;
  std::unique_ptr<AttributeSelector> selector_;
};

}  // namespace

StatusOr<CellSearchResult> SearchBalancedCells(
    const CellIndex& index, AttributeSelector& selector,
    const Divergence& divergence, const EvaluatorOptions& options,
    const ExecutionContext& context) {
  CellSearchResult result;
  CellPartition root;
  root.cells.resize(index.num_cells());
  std::iota(root.cells.begin(), root.cells.end(), size_t{0});
  result.partitions.push_back(std::move(root));
  std::vector<size_t> attrs(index.num_attrs());
  std::iota(attrs.begin(), attrs.end(), size_t{0});

  // Exhaustion keeps the partitioning reached; other errors propagate.
  auto stop = [&](const Status& status) -> StatusOr<CellSearchResult> {
    if (!IsExhaustion(status)) return status;
    result.reason = ExhaustionReasonFromStatus(status);
    return std::move(result);
  };

  // Algorithm 1: the first split is unconditional (lines 1-4); each later
  // level is kept only while the average pairwise divergence improves
  // (lines 5-16). One selection round evaluates a candidate split per
  // remaining attribute — charge them as nodes up front so a node budget
  // bounds the evaluations actually performed.
  std::vector<CellPartition>& current = result.partitions;
  bool first = true;
  while (!attrs.empty()) {
    ExhaustionReason why = context.CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      result.reason = why;
      return result;
    }
    result.nodes_visited += attrs.size();

    StatusOr<size_t> pos = [&] {
      ScopedSpan expand_span(context.trace(), "expand",
                             context.trace_parent());
      return selector.SelectGlobal(attrs.size(), [&](size_t p) {
        return Evaluate(index, SplitCells(index, current, attrs[p]),
                        divergence, options);
      });
    }();
    if (!pos.ok()) return stop(pos.status());
    const size_t attr = attrs[*pos];
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
    std::vector<CellPartition> children = SplitCells(index, current, attr);
    ScopedSpan evaluate_span(context.trace(), "evaluate",
                             context.trace_parent());
    StatusOr<double> children_avg =
        Evaluate(index, children, divergence, options);
    if (!children_avg.ok()) return stop(children_avg.status());
    if (!first && result.unfairness >= *children_avg) break;
    current = std::move(children);
    result.unfairness = *children_avg;
    result.attributes_used.push_back(attr);
    first = false;
  }
  return result;
}

std::unique_ptr<PartitioningAlgorithm> MakeBalancedAlgorithm(
    std::string name, std::unique_ptr<AttributeSelector> selector) {
  return std::make_unique<BalancedAlgorithm>(std::move(name),
                                             std::move(selector));
}

}  // namespace fairrank

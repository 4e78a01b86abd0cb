#include "fairness/balanced.h"

#include "common/trace.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

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

    // Algorithm 1: the first split is unconditional (lines 1-4); each later
    // level is kept only while the average pairwise divergence improves
    // (lines 5-16). One selection round evaluates a candidate split per
    // remaining attribute — charge them as nodes up front so a node budget
    // bounds the EMD evaluations actually performed.
    Partitioning& current = result.partitioning;
    double current_avg = 0.0;
    bool first = true;
    while (!attrs.empty()) {
      ExhaustionReason why = context.CheckNodes(attrs.size());
      if (why != ExhaustionReason::kNone) {
        return TruncatedResult(std::move(result), why);
      }
      result.nodes_visited += attrs.size();

      StatusOr<size_t> pos = [&] {
        ScopedSpan expand_span(context.trace(), "expand",
                               context.trace_parent());
        return selector_->SelectGlobal(eval, current, attrs);
      }();
      if (!pos.ok()) return DegradeOnExhaustion(std::move(result),
                                                pos.status());
      size_t attr = attrs[*pos];
      attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
      Partitioning children = SplitAll(eval.table(), current, attr);
      ScopedSpan evaluate_span(context.trace(), "evaluate",
                               context.trace_parent());
      StatusOr<double> children_avg = eval.AveragePairwiseUnfairness(children);
      if (!children_avg.ok()) {
        return DegradeOnExhaustion(std::move(result), children_avg.status());
      }
      if (!first && current_avg >= *children_avg) break;
      current = std::move(children);
      current_avg = *children_avg;
      first = false;
    }
    return result;
  }

 private:
  std::string name_;
  std::unique_ptr<AttributeSelector> selector_;
};

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeBalancedAlgorithm(
    std::string name, std::unique_ptr<AttributeSelector> selector) {
  return std::make_unique<BalancedAlgorithm>(std::move(name),
                                             std::move(selector));
}

}  // namespace fairrank

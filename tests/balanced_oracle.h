#ifndef FAIRRANK_TESTS_BALANCED_ORACLE_H_
#define FAIRRANK_TESTS_BALANCED_ORACLE_H_

// Test oracle for Algorithm 1 (`balanced` / `r-balanced`): the row-level
// loop the search over demographic cells replaced. It is slow and
// obviously correct — every candidate split is a SplitAll over rows and
// every average an UnfairnessEvaluator::AveragePairwiseUnfairness over
// histograms built from those rows — and the cell search must agree with
// it exactly: the same partitions (rows and paths), bit-identical
// unfairness and the same nodes_visited. Shared by
// tests/balanced_oracle_test.cc and tests/selector_test.cc.

#include <cstddef>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "fairness/algorithm.h"
#include "fairness/evaluator.h"
#include "fairness/splitter.h"

namespace fairrank::balanced_oracle {

/// SelectGlobal over row candidates: candidate `pos` splits every partition
/// of `current` on attrs[pos].
inline StatusOr<size_t> SelectGlobalOverRows(
    AttributeSelector& selector, const UnfairnessEvaluator& eval,
    const Partitioning& current, const std::vector<size_t>& attrs) {
  return selector.SelectGlobal(attrs.size(), [&](size_t pos) {
    return eval.AveragePairwiseUnfairness(
        SplitAll(eval.table(), current, attrs[pos]));
  });
}

/// The row-level result, plus the unfairness the loop last accepted.
struct RowSearch {
  SearchResult result;
  double unfairness = 0.0;
};

/// Algorithm 1 over rows, with the node charging, exhaustion handling and
/// tie rule of the search it checks.
inline StatusOr<RowSearch> BalancedOverRows(const UnfairnessEvaluator& eval,
                                            std::vector<size_t> attrs,
                                            AttributeSelector& selector,
                                            const ExecutionContext& context) {
  RowSearch search;
  SearchResult& result = search.result;
  result.partitioning = {MakeRootPartition(eval.table().num_rows())};
  Partitioning& current = result.partitioning;
  bool first = true;
  while (!attrs.empty()) {
    ExhaustionReason why = context.CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      result = TruncatedResult(std::move(result), why);
      return search;
    }
    result.nodes_visited += attrs.size();
    StatusOr<size_t> pos = SelectGlobalOverRows(selector, eval, current, attrs);
    if (!pos.ok()) {
      FAIRRANK_ASSIGN_OR_RETURN(
          result, DegradeOnExhaustion(std::move(result), pos.status()));
      return search;
    }
    size_t attr = attrs[*pos];
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
    Partitioning children = SplitAll(eval.table(), current, attr);
    StatusOr<double> children_avg = eval.AveragePairwiseUnfairness(children);
    if (!children_avg.ok()) {
      FAIRRANK_ASSIGN_OR_RETURN(
          result,
          DegradeOnExhaustion(std::move(result), children_avg.status()));
      return search;
    }
    if (!first && search.unfairness >= *children_avg) break;
    current = std::move(children);
    search.unfairness = *children_avg;
    first = false;
  }
  return search;
}

}  // namespace fairrank::balanced_oracle

#endif  // FAIRRANK_TESTS_BALANCED_ORACLE_H_

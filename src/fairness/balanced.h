#ifndef FAIRRANK_FAIRNESS_BALANCED_H_
#define FAIRRANK_FAIRNESS_BALANCED_H_

#include <memory>
#include <vector>

#include "fairness/aggregate.h"
#include "fairness/algorithm.h"

namespace fairrank {

/// Algorithm 1 of the paper (`balanced`): repeatedly split *every* current
/// partition on the attribute chosen by `selector` (the worst attribute for
/// the paper's variant, a random one for r-balanced), stopping when the
/// average pairwise divergence no longer increases. Produces a balanced
/// partitioning tree — all leaves share the same split attributes.
///
/// It runs SearchBalancedCells on the CellIndex of the audited attributes
/// (one pass over the rows, charged to the memory budget; exhaustion there
/// yields the truncated root), then materializes the winner's rows once by
/// replaying its splits with SplitAll.
///
/// `name` lets the registry reuse this implementation for "balanced" and
/// "r-balanced".
std::unique_ptr<PartitioningAlgorithm> MakeBalancedAlgorithm(
    std::string name, std::unique_ptr<AttributeSelector> selector);

/// Outcome of SearchBalancedCells: the partitioning reached, the attribute
/// positions split on (in order), its unfairness (0 for the root), the
/// nodes charged, and why the search stopped early (kNone if it did not).
struct CellSearchResult {
  std::vector<CellPartition> partitions;
  std::vector<size_t> attributes_used;
  double unfairness = 0.0;
  uint64_t nodes_visited = 0;
  ExhaustionReason reason = ExhaustionReason::kNone;
};

/// Algorithm 1 over the cells of `index`, from the root partition of every
/// cell. A split regroups each partition's cells by their group on the
/// attribute, children in ascending group order without empty groups
/// (SplitAll's order). Candidates are scored by AveragePairwiseDivergence
/// over cell-summed histograms with `divergence` and `options`, and picked
/// by `selector`. Each round first charges one node per remaining
/// attribute to `context`. Exhaustion stops the search with `reason` set;
/// other errors are returned.
StatusOr<CellSearchResult> SearchBalancedCells(
    const CellIndex& index, AttributeSelector& selector,
    const Divergence& divergence, const EvaluatorOptions& options,
    const ExecutionContext& context);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_BALANCED_H_

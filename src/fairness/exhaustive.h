#ifndef FAIRRANK_FAIRNESS_EXHAUSTIVE_H_
#define FAIRRANK_FAIRNESS_EXHAUSTIVE_H_

#include <cstdint>
#include <memory>

#include "fairness/algorithm.h"

namespace fairrank {

/// Budgets for the brute-force search. The paper's exhaustive run "failed to
/// terminate after running for two days"; we bound it explicitly instead.
/// Exhaustion no longer fails the run: the search returns its best-so-far
/// partitioning flagged `truncated` (see PartitioningAlgorithm), optionally
/// after a beam-search fallback.
struct ExhaustiveOptions {
  /// Maximum number of complete partitionings to evaluate before truncating
  /// (a built-in node budget, additive to any ExecutionContext budget).
  uint64_t max_partitionings = 1'000'000;
  /// Wall-clock budget in seconds; <= 0 disables the time limit. Equivalent
  /// to an ExecutionContext deadline (truncation reason "deadline").
  double max_seconds = 0.0;
  /// When the *node* budget trips (max_partitionings or the context's
  /// --max-nodes), rerun as a beam search — bounded by construction — under
  /// the same deadline/cancellation but without the spent node budget, and
  /// return whichever partitioning scores higher. Deadline or cancellation
  /// trips never trigger the fallback: no time is left to spend.
  bool fallback_to_beam = true;
  /// Beam width of the fallback search.
  int fallback_beam_width = 4;
};

/// Exact brute force over the space the heuristics navigate: every
/// *hierarchical* partitioning — each tree node is either a leaf or splits
/// on one attribute not used on its root path, with independent choices per
/// branch (the unbalanced-tree space, a superset of every partitioning the
/// paper's algorithms can return). Returns the partitioning with the highest
/// average pairwise divergence.
///
/// Splits in which the attribute takes a single value inside a partition are
/// skipped (they would re-enumerate an identical partitioning). The trivial
/// root partitioning is part of the space (unfairness 0).
///
/// Exponential; use only on toy instances or with tight budgets.
std::unique_ptr<PartitioningAlgorithm> MakeExhaustiveAlgorithm(
    const ExhaustiveOptions& options = ExhaustiveOptions());

/// Counts the number of hierarchical partitionings of `eval`'s table over
/// `attrs` without evaluating them (no histogram, no divergence): a product
/// rule over the search's split cache, returning `cap` once the count
/// reaches it. Used by the blow-up bench.
uint64_t CountHierarchicalPartitionings(const UnfairnessEvaluator& eval,
                                        std::vector<size_t> attrs,
                                        uint64_t cap);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_EXHAUSTIVE_H_

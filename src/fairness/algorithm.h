#ifndef FAIRRANK_FAIRNESS_ALGORITHM_H_
#define FAIRRANK_FAIRNESS_ALGORITHM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "common/status.h"
#include "fairness/evaluator.h"
#include "fairness/partition.h"

namespace fairrank {

/// Strategy for picking the next attribute to split on. The paper's
/// algorithms pick the *worst* attribute (highest resulting average pairwise
/// EMD); the r-balanced / r-unbalanced baselines pick uniformly at random.
///
/// Both methods return a *position into `attrs`* (not an attribute index),
/// so callers can erase the chosen entry.
class AttributeSelector {
 public:
  virtual ~AttributeSelector() = default;

  /// Picks the attribute for a global split of `current` (Algorithm 1's
  /// worstAttribute(current, f, A)). `attrs` must be non-empty.
  virtual StatusOr<size_t> SelectGlobal(const UnfairnessEvaluator& eval,
                                        const Partitioning& current,
                                        const std::vector<size_t>& attrs) = 0;

  /// Picks the attribute for a local split of one partition against its
  /// siblings (Algorithm 2's worstAttribute(current, f, A)). `attrs` must be
  /// non-empty.
  virtual StatusOr<size_t> SelectLocal(const UnfairnessEvaluator& eval,
                                       const Partition& current,
                                       const std::vector<Partition>& siblings,
                                       const std::vector<size_t>& attrs) = 0;
};

/// Greedy selector: tries every remaining attribute and returns the one
/// whose split yields the highest average pairwise divergence (globally for
/// SelectGlobal; children-vs-siblings for SelectLocal). Ties break toward
/// the earliest position, keeping runs deterministic. SelectGlobal counts
/// averages within 1e-12 relative of each other as ties, so the rounding of
/// the closed-form "emd" average cannot flip a split.
std::unique_ptr<AttributeSelector> MakeWorstAttributeSelector();

/// Uniform-random selector for the r-* baselines. Deterministic given the
/// seed.
std::unique_ptr<AttributeSelector> MakeRandomAttributeSelector(uint64_t seed);

/// Outcome of a bounded partition search. Always carries a valid full
/// disjoint partitioning; `truncated` marks a best-effort answer produced
/// under deadline, cancellation, or budget exhaustion rather than a
/// completed search.
struct SearchResult {
  Partitioning partitioning;
  /// True when the search stopped early and returned its best-so-far.
  bool truncated = false;
  /// Why it stopped early; kNone when not truncated.
  ExhaustionReason reason = ExhaustionReason::kNone;
  /// Split / candidate-evaluation checkpoints passed — the work actually
  /// done, comparable across algorithms and against --max-nodes.
  uint64_t nodes_visited = 0;
};

/// A partition-search algorithm. Implementations must return a valid full
/// disjoint partitioning of the evaluator's table (IsValidPartitioning) —
/// even when truncated: on deadline, cancellation, or budget exhaustion they
/// degrade gracefully to the best (or deepest) valid partitioning found so
/// far instead of failing. A non-OK status is reserved for real errors
/// (invalid arguments, internal faults), never for exhaustion.
class PartitioningAlgorithm {
 public:
  virtual ~PartitioningAlgorithm() = default;

  /// Stable identifier, e.g. "balanced".
  virtual std::string Name() const = 0;

  /// Searches for an unfair partitioning over the protected attributes
  /// `attrs` (indices into the evaluator's table schema), checking `context`
  /// at split and evaluation boundaries. `attrs` may be consumed in any
  /// order; passing an empty list yields the trivial root partitioning.
  virtual StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                                     std::vector<size_t> attrs,
                                     const ExecutionContext& context) = 0;

  /// Unbounded convenience: runs with ExecutionContext::Unbounded() and
  /// yields just the partitioning (never truncated).
  StatusOr<Partitioning> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs);
};

/// Marks `result` truncated for `reason` and returns it (no-op for kNone).
SearchResult TruncatedResult(SearchResult result, ExhaustionReason reason);

/// Degradation helper for a sub-step that failed with `status`: exhaustion
/// statuses (deadline / cancelled / budget) convert the best-so-far `result`
/// into a truncated success; real errors propagate unchanged.
StatusOr<SearchResult> DegradeOnExhaustion(SearchResult result,
                                           const Status& status);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_ALGORITHM_H_

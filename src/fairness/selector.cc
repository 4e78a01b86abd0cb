#include <cmath>

#include "fairness/algorithm.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

/// Relative gap below which two SelectGlobal candidates tie. Their "emd"
/// averages come from a closed form whose rounding differs from a pair
/// loop's by up to ~1e-12 relative at k ≈ 1767, so a smaller gap says more
/// about summation order than about the data. Figure 1's toy data ties
/// Gender and Language at exactly 0.3 at the root; the rule keeps Gender.
constexpr double kGlobalTieTolerance = 1e-12;

class WorstAttributeSelector : public AttributeSelector {
 public:
  StatusOr<size_t> SelectGlobal(size_t num_candidates,
                                const CandidateScorer& score) override {
    if (num_candidates == 0) {
      return Status::InvalidArgument("no attributes to select from");
    }
    size_t best_pos = 0;
    double best_avg = -1.0;
    for (size_t pos = 0; pos < num_candidates; ++pos) {
      FAIRRANK_ASSIGN_OR_RETURN(double avg, score(pos));
      // Only a clear gain replaces the best, so on equal averages the
      // lowest attribute position, tried first, is kept.
      if (avg > best_avg + kGlobalTieTolerance * std::abs(best_avg)) {
        best_avg = avg;
        best_pos = pos;
      }
    }
    return best_pos;
  }

  StatusOr<size_t> SelectLocal(const UnfairnessEvaluator& eval,
                               const Partition& current,
                               const std::vector<Partition>& siblings,
                               const std::vector<size_t>& attrs) override {
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    size_t best_pos = 0;
    double best_avg = -1.0;
    for (size_t pos = 0; pos < attrs.size(); ++pos) {
      std::vector<Partition> children =
          SplitPartition(eval.table(), current, attrs[pos]);
      FAIRRANK_ASSIGN_OR_RETURN(
          double avg, eval.AverageChildrenWithSiblings(children, siblings));
      // Strict >: on equal averages the lowest attribute position, tried
      // first, is kept. No tolerance here: these averages come from the
      // pair loop, whose fixed summation order gives identical splits
      // identical sums.
      if (avg > best_avg) {
        best_avg = avg;
        best_pos = pos;
      }
    }
    return best_pos;
  }
};

class RandomAttributeSelector : public AttributeSelector {
 public:
  explicit RandomAttributeSelector(uint64_t seed) : rng_(seed) {}

  StatusOr<size_t> SelectGlobal(size_t num_candidates,
                                const CandidateScorer& score) override {
    (void)score;
    if (num_candidates == 0) {
      return Status::InvalidArgument("no attributes to select from");
    }
    return rng_.UniformIndex(num_candidates);
  }

  StatusOr<size_t> SelectLocal(const UnfairnessEvaluator& eval,
                               const Partition& current,
                               const std::vector<Partition>& siblings,
                               const std::vector<size_t>& attrs) override {
    (void)eval;
    (void)current;
    (void)siblings;
    if (attrs.empty()) {
      return Status::InvalidArgument("no attributes to select from");
    }
    return rng_.UniformIndex(attrs.size());
  }

 private:
  Rng rng_;
};

}  // namespace

std::unique_ptr<AttributeSelector> MakeWorstAttributeSelector() {
  return std::make_unique<WorstAttributeSelector>();
}

std::unique_ptr<AttributeSelector> MakeRandomAttributeSelector(uint64_t seed) {
  return std::make_unique<RandomAttributeSelector>(seed);
}

}  // namespace fairrank

#include "fairness/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// The enumeration's private memo, alive for one Run (or one count) and
/// never shared, so it takes no lock.
///
/// Paths. Each distinct *ordered* split path gets a dense path id; the root
/// is 0. Splitting path p on attribute position a yields the same child ids
/// every time: the first split runs SplitPartition and caches the ids, later
/// ones read them. A path keeps its rows only until every attribute left to
/// it has been split; the enumeration never reads them again, and
/// Materialize rebuilds a winner's rows from its steps.
///
/// Constraint sets (search only). Paths with equal sorted constraints select
/// equal rows, whatever the split order, so each path maps onto one
/// constraint-set id, interned on the path's first sighting. A set owns the
/// histogram and a lazily filled distance row indexed (first, second) in
/// call order, so the mean AveragePairwise returns is bit-identical to the
/// mean of PairwiseDistances. (For "emd", AveragePairwiseUnfairness is a
/// closed form that can differ from it in the last ~1e-12 relative.) The
/// path keeps the split order, because it is what the labels print.
class PartitionMemo {
 public:
  /// [begin, end) of a split's child path ids; see child().
  struct Children {
    size_t begin = kUnsplit;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };

  /// `eval` null = counting only: no constraint sets, no histograms.
  PartitionMemo(const Table& table, std::vector<size_t> attrs,
                const UnfairnessEvaluator* eval)
      : table_(table), attrs_(std::move(attrs)), eval_(eval) {
    AddPath(MakeRootPartition(table.num_rows()), kUnsplit, kUnsplit);
  }

  size_t num_attributes() const { return attrs_.size(); }

  /// Attribute position `pos` is still allowed below path `id` (not used on
  /// its path).
  bool allowed(size_t id, size_t pos) const {
    return children(id, pos).begin != kBarred;
  }
  /// The split of `id` on `pos` is cached.
  bool is_split(size_t id, size_t pos) const {
    return children(id, pos).begin < kBarred;
  }
  /// The cached children of `id` split on `pos`. A split with fewer than two
  /// children (the attribute takes a single value) caches none: it would
  /// re-enumerate the same partitioning.
  Children children(size_t id, size_t pos) const {
    return splits_[id * attrs_.size() + pos];
  }
  size_t child(size_t slot) const { return child_ids_[slot]; }
  size_t set(size_t id) const { return paths_[id].set; }

  /// Splits path `id` on the allowed, not yet split position `pos` and
  /// caches its children. The growth is charged by the next Charge.
  void Split(size_t id, size_t pos) {
    std::vector<Partition> parts =
        SplitPartition(table_, paths_[id].partition, attrs_[pos]);
    const size_t begin = child_ids_.size();
    if (parts.size() >= 2) {
      for (Partition& part : parts) {
        child_ids_.push_back(AddPath(std::move(part), id, pos));
      }
    }
    splits_[id * attrs_.size() + pos] = {begin, child_ids_.size()};
    if (--paths_[id].unsplit == 0) DropRows(id);
  }

  /// Charges the growth since the last call through `context` and returns
  /// the verdict; no checkpoint when nothing grew.
  ExhaustionReason Charge(const ExecutionContext& context) {
    if (uncharged_bytes_ == 0) return ExhaustionReason::kNone;
    const uint64_t bytes = uncharged_bytes_;
    uncharged_bytes_ = 0;
    return context.CheckMemory(bytes);
  }

  /// Divergence of constraint sets `a` and `b`, computed on first use.
  StatusOr<double> Distance(size_t a, size_t b) {
    std::vector<double>& row = distances_[a];
    if (b >= row.size()) {
      row.resize(histograms_.size(), std::numeric_limits<double>::quiet_NaN());
    }
    // NaN marks "not computed yet"; a divergence never returns NaN (its
    // failures are Statuses), so a stored value is never recomputed.
    if (std::isnan(row[b])) {
      FAIRRANK_ASSIGN_OR_RETURN(
          row[b], eval_->Distance(histograms_[a], histograms_[b]));
    }
    return row[b];
  }

  /// Average pairwise divergence of the constraint sets `sets`, summed over
  /// (i, j), i < j, in the order PairwiseDistances flattens them.
  StatusOr<double> AveragePairwise(const std::vector<size_t>& sets) {
    const size_t k = sets.size();
    if (k < 2) return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        FAIRRANK_ASSIGN_OR_RETURN(double d, Distance(sets[i], sets[j]));
        sum += d;
      }
    }
    return sum / static_cast<double>(k * (k - 1) / 2);
  }

  /// Path `id` as a Partition: its steps, and the rows they select in table
  /// order, which is the order SplitPartition keeps.
  Partition Materialize(size_t id) const {
    Partition partition;
    partition.path = paths_[id].partition.path;
    for (size_t row = 0; row < table_.num_rows(); ++row) {
      bool selected = true;
      for (const SplitStep& step : partition.path) {
        if (table_.GroupIndex(row, step.attr_index) != step.group_index) {
          selected = false;
          break;
        }
      }
      if (selected) partition.rows.push_back(row);
    }
    return partition;
  }

 private:
  static constexpr size_t kUnsplit = std::numeric_limits<size_t>::max();
  static constexpr size_t kBarred = kUnsplit - 1;

  struct Path {
    Partition partition;  ///< Rows dropped once every split is cached.
    size_t set = 0;       ///< Constraint-set id (search only).
    size_t unsplit = 0;   ///< Allowed positions not split yet.
  };

  /// Appends the path of `partition`, made by splitting `parent` on `pos`
  /// (kUnsplit for the root): its split slots, its constraint set and, on
  /// the set's first sighting, its histogram.
  size_t AddPath(Partition partition, size_t parent, size_t pos) {
    const size_t id = paths_.size();
    const size_t num_attrs = attrs_.size();
    Path path;
    for (size_t a = 0; a < num_attrs; ++a) {
      const bool barred =
          a == pos || (parent != kUnsplit && !allowed(parent, a));
      splits_.push_back({barred ? kBarred : kUnsplit, 0});
      if (!barred) ++path.unsplit;
    }
    uncharged_bytes_ += sizeof(Path) + sizeof(size_t) +
                        num_attrs * sizeof(Children) +
                        partition.path.size() * sizeof(SplitStep);
    if (eval_ != nullptr) path.set = Intern(partition);
    path.partition = std::move(partition);
    paths_.push_back(std::move(path));
    const Path& added = paths_.back();
    if (added.unsplit == 0) {
      DropRows(id);
    } else {
      uncharged_bytes_ += added.partition.rows.size() * sizeof(size_t);
    }
    return id;
  }

  /// The constraint-set id of `partition`; a first sighting builds the
  /// histogram and adds the distance row and column the id may fill.
  size_t Intern(const Partition& partition) {
    std::vector<std::pair<size_t, int>> key;
    key.reserve(partition.path.size());
    for (const SplitStep& step : partition.path) {
      key.emplace_back(step.attr_index, step.group_index);
    }
    std::sort(key.begin(), key.end());
    const size_t next = histograms_.size();
    auto [it, inserted] = ids_.emplace(std::move(key), next);
    if (!inserted) return it->second;
    histograms_.push_back(eval_->BuildHistogram(partition));
    distances_.emplace_back();
    const Histogram& h = histograms_.back();
    uncharged_bytes_ += sizeof(Histogram) +
                        h.counts().size() * sizeof(double) +
                        it->first.size() * sizeof(it->first.front()) +
                        2 * (next + 1) * sizeof(double);
    return next;
  }

  void DropRows(size_t id) {
    std::vector<size_t>().swap(paths_[id].partition.rows);
  }

  const Table& table_;
  const std::vector<size_t> attrs_;
  const UnfairnessEvaluator* eval_;
  std::vector<Path> paths_;
  /// Per path, one slot per attribute position: the cached children, or
  /// kUnsplit / kBarred in `begin`.
  std::vector<Children> splits_;
  std::vector<size_t> child_ids_;
  uint64_t uncharged_bytes_ = 0;
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
    memo_.emplace(eval.table(), attrs, &eval);
    pending_.assign(1, 0);  // The root path.
    leaves_.clear();
    leaf_sets_.clear();
    prefix_.assign(1, 0.0);
    scored_ = 0;

    trip_ = memo_->Charge(context);
    FAIRRANK_RETURN_NOT_OK(Recurse());
    // The root partitioning is the first one enumerated, so best_ is only
    // empty when the budget tripped before a single evaluation.
    if (best_.empty()) best_.push_back(0);
    Partitioning best;
    for (size_t id : best_) best.push_back(memo_->Materialize(id));
    memo_.reset();

    SearchResult result;
    result.nodes_visited = evaluated_;
    if (trip_ == ExhaustionReason::kNone) {
      result.partitioning = std::move(best);
      return result;
    }
    result.truncated = true;
    result.reason = trip_;
    if (options_.fallback_to_beam && trip_ == ExhaustionReason::kNodeBudget) {
      FallbackToBeam(eval, std::move(attrs), context, &result);
    }
    if (result.partitioning.empty()) result.partitioning = std::move(best);
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

  /// Sets trip_ from an evaluation failure that is an exhaustion; returns
  /// any other failure.
  Status TripOrFail(const Status& status) {
    if (!IsExhaustion(status)) return status;
    trip_ = ExhaustionReasonFromStatus(status);
    return Status::OK();
  }

  /// Scores the complete partitioning `leaves_` against the incumbent.
  ///
  /// The running sum prefix_[j] holds the pairs among the first j leaves;
  /// leaves pushed since the last score add their column Σ_{i<j} d(i, j).
  /// That sum runs in column order, the canonical mean in row order, so the
  /// two can differ in the last bits. Both are recursive sums of the same
  /// m = C(k, 2) non-negative terms, each within (m − 1)·u of the exact sum
  /// (u = 2⁻⁵³), so a partitioning whose incremental mean, raised by 4·m·u
  /// relative, is still below the incumbent cannot win. Any other is
  /// rescored with the canonical loop (its pairs are memoized by now) and
  /// compared with the strict `>` that keeps the earliest of equal means.
  Status Score() {
    const size_t k = leaf_sets_.size();
    prefix_.resize(k + 1);
    for (; scored_ < k; ++scored_) {
      const size_t j = scored_;
      double sum = prefix_[j];
      for (size_t i = 0; i < j; ++i) {
        StatusOr<double> d = memo_->Distance(leaf_sets_[i], leaf_sets_[j]);
        if (!d.ok()) return TripOrFail(d.status());
        sum += *d;
      }
      prefix_[j + 1] = sum;
    }
    if (k >= 2) {
      const double pairs = static_cast<double>(k * (k - 1) / 2);
      const double mean = prefix_[k] / pairs;
      constexpr double kUnitRoundoff =
          std::numeric_limits<double>::epsilon() / 2;
      if (mean + mean * (4.0 * pairs * kUnitRoundoff) < best_avg_) {
        return Status::OK();
      }
    }
    StatusOr<double> avg = memo_->AveragePairwise(leaf_sets_);
    if (!avg.ok()) return TripOrFail(avg.status());
    if (*avg > best_avg_) {
      best_avg_ = *avg;
      best_ = leaves_;
    }
    return Status::OK();
  }

  Status Recurse() {
    if (trip_ != ExhaustionReason::kNone) return Status::OK();  // Unwinding.
    if (pending_.empty()) {
      // A complete partitioning: check the budgets, then score it.
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
      return Score();
    }

    const size_t node = pending_.back();
    pending_.pop_back();

    // Option 1: close this node as a leaf.
    leaves_.push_back(node);
    leaf_sets_.push_back(memo_->set(node));
    FAIRRANK_RETURN_NOT_OK(Recurse());
    leaves_.pop_back();
    leaf_sets_.pop_back();
    scored_ = std::min(scored_, leaves_.size());

    // Option 2: split on each remaining attribute with >= 2 represented
    // values, in attribute order.
    const size_t num_attrs = memo_->num_attributes();
    for (size_t pos = 0;
         pos < num_attrs && trip_ == ExhaustionReason::kNone; ++pos) {
      if (!memo_->allowed(node, pos)) continue;
      if (!memo_->is_split(node, pos)) {
        ScopedSpan expand_span(context_->trace(), "expand",
                               context_->trace_parent());
        memo_->Split(node, pos);
        trip_ = memo_->Charge(*context_);
      }
      const PartitionMemo::Children children = memo_->children(node, pos);
      if (children.size() < 2) continue;
      const size_t old_size = pending_.size();
      for (size_t slot = children.begin; slot < children.end; ++slot) {
        pending_.push_back(memo_->child(slot));
      }
      FAIRRANK_RETURN_NOT_OK(Recurse());
      pending_.resize(old_size);
    }

    pending_.push_back(node);
    return Status::OK();
  }

  ExhaustiveOptions options_;
  const ExecutionContext* context_ = nullptr;
  std::optional<PartitionMemo> memo_;  ///< Lives for one Run.
  std::vector<size_t> pending_;        ///< Path ids not yet resolved.
  std::vector<size_t> leaves_;         ///< Path ids of the closed leaves.
  std::vector<size_t> leaf_sets_;      ///< Their constraint-set ids.
  /// prefix_[j]: the pair sum over the first j leaves, valid for j <= scored_.
  std::vector<double> prefix_;
  size_t scored_ = 0;
  ExhaustionReason trip_ = ExhaustionReason::kNone;
  uint64_t evaluated_ = 0;
  double best_avg_ = -1.0;
  std::vector<size_t> best_;  ///< Path ids of the incumbent's leaves.
  Stopwatch stopwatch_;
};

/// Hierarchical partitionings of the subtree at path `id`, capped at `cap`:
/// the node is a leaf, or it splits on one allowed attribute and each child
/// independently takes one of its own partitionings, so the count is
/// 1 + Σ_splits Π_children count(child). Every count is >= 1, so a capped
/// partial product or sum already caps the whole.
uint64_t CountFrom(PartitionMemo* memo, size_t id, uint64_t cap) {
  uint64_t total = 1;
  for (size_t pos = 0; pos < memo->num_attributes() && total < cap; ++pos) {
    if (!memo->allowed(id, pos)) continue;
    if (!memo->is_split(id, pos)) memo->Split(id, pos);
    const PartitionMemo::Children children = memo->children(id, pos);
    if (children.size() < 2) continue;
    uint64_t product = 1;
    for (size_t slot = children.begin; slot < children.end && product < cap;
         ++slot) {
      const uint64_t count = CountFrom(memo, memo->child(slot), cap);
      product = product > cap / count ? cap : product * count;
    }
    total = product >= cap - total ? cap : total + product;
  }
  return std::min(total, cap);
}

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeExhaustiveAlgorithm(
    const ExhaustiveOptions& options) {
  return std::make_unique<ExhaustiveAlgorithm>(options);
}

uint64_t CountHierarchicalPartitionings(const UnfairnessEvaluator& eval,
                                        std::vector<size_t> attrs,
                                        uint64_t cap) {
  PartitionMemo memo(eval.table(), std::move(attrs), nullptr);
  return CountFrom(&memo, 0, cap);
}

}  // namespace fairrank

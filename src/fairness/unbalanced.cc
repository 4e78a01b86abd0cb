#include "fairness/unbalanced.h"

#include "common/trace.h"
#include "fairness/splitter.h"

namespace fairrank {

namespace {

class UnbalancedAlgorithm : public PartitioningAlgorithm {
 public:
  UnbalancedAlgorithm(std::string name,
                      std::unique_ptr<AttributeSelector> selector)
      : name_(std::move(name)), selector_(std::move(selector)) {}

  std::string Name() const override { return name_; }

  using PartitioningAlgorithm::Run;

  StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs,
                             const ExecutionContext& context) override {
    SearchResult result;
    Partition root = MakeRootPartition(eval.table().num_rows());
    result.partitioning = {root};
    if (attrs.empty()) return result;

    // Initial split on the selector's attribute, "as in the case of
    // balanced"; Algorithm 2 is then invoked once per resulting partition.
    ExhaustionReason why = context.CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      return TruncatedResult(std::move(result), why);
    }
    result.nodes_visited += attrs.size();
    StatusOr<size_t> pos = [&] {
      ScopedSpan expand_span(context.trace(), "expand", context.trace_parent());
      return selector_->SelectGlobal(eval, result.partitioning, attrs);
    }();
    if (!pos.ok()) return DegradeOnExhaustion(std::move(result), pos.status());
    size_t attr = attrs[*pos];
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
    std::vector<Partition> children = SplitPartition(eval.table(), root, attr);

    RunState state{&context, &result};
    Partitioning output;
    for (size_t i = 0; i < children.size(); ++i) {
      std::vector<Partition> siblings = SiblingsOf(children, i);
      FAIRRANK_RETURN_NOT_OK(
          Recurse(eval, children[i], siblings, attrs, &state, &output));
    }
    result.partitioning = std::move(output);
    return result;
  }

 private:
  /// Truncation state shared across the recursion. Once `tripped`, every
  /// pending branch immediately closes its partition as a leaf — the output
  /// is then still a valid full partitioning, just shallower than the
  /// untruncated run would have produced.
  struct RunState {
    const ExecutionContext* context;
    SearchResult* result;

    bool tripped() const { return result->truncated; }
    void Trip(ExhaustionReason reason) {
      *result = TruncatedResult(std::move(*result), reason);
    }
  };

  static std::vector<Partition> SiblingsOf(const std::vector<Partition>& all,
                                           size_t skip) {
    std::vector<Partition> siblings;
    siblings.reserve(all.size() - 1);
    for (size_t i = 0; i < all.size(); ++i) {
      if (i != skip) siblings.push_back(all[i]);
    }
    return siblings;
  }

  /// Degradation path for a failed evaluator / selector call inside the
  /// recursion: exhaustion trips the run state and closes `current` as a
  /// leaf; real errors propagate.
  static Status CloseOrFail(const Status& status, const Partition& current,
                            RunState* state, Partitioning* output) {
    if (!IsExhaustion(status)) return status;
    state->Trip(ExhaustionReasonFromStatus(status));
    output->push_back(current);
    return Status::OK();
  }

  /// Algorithm 2. `attrs` is passed by value: each branch of the recursion
  /// consumes its own copy, so sibling subtrees may split on different
  /// attributes (the "unbalanced" tree).
  Status Recurse(const UnfairnessEvaluator& eval, const Partition& current,
                 const std::vector<Partition>& siblings,
                 std::vector<size_t> attrs, RunState* state,
                 Partitioning* output) {
    if (attrs.empty() || state->tripped()) {  // Line 1-2 (or degrading).
      output->push_back(current);
      return Status::OK();
    }
    ExhaustionReason why = state->context->CheckNodes(attrs.size());
    if (why != ExhaustionReason::kNone) {
      state->Trip(why);
      output->push_back(current);
      return Status::OK();
    }
    state->result->nodes_visited += attrs.size();
    TraceContext* trace = state->context->trace();
    const int64_t trace_parent = state->context->trace_parent();
    StatusOr<double> current_avg = [&] {
      ScopedSpan eval_span(trace, "evaluate", trace_parent);
      return eval.AverageWithSiblings(current, siblings);
    }();
    if (!current_avg.ok()) {
      return CloseOrFail(current_avg.status(), current, state, output);
    }
    StatusOr<size_t> pos = [&] {
      ScopedSpan expand_span(trace, "expand", trace_parent);
      return selector_->SelectLocal(eval, current, siblings, attrs);
    }();
    if (!pos.ok()) return CloseOrFail(pos.status(), current, state, output);
    size_t attr = attrs[*pos];
    attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
    std::vector<Partition> children =
        SplitPartition(eval.table(), current, attr);
    StatusOr<double> children_avg = [&] {
      ScopedSpan children_span(trace, "evaluate", trace_parent);
      return eval.AverageChildrenWithSiblings(children, siblings);
    }();
    if (!children_avg.ok()) {
      return CloseOrFail(children_avg.status(), current, state, output);
    }
    if (*current_avg >= *children_avg) {  // Line 9-10.
      output->push_back(current);
      return Status::OK();
    }
    for (size_t i = 0; i < children.size(); ++i) {  // Lines 12-14.
      FAIRRANK_RETURN_NOT_OK(Recurse(eval, children[i], SiblingsOf(children, i),
                                     attrs, state, output));
    }
    return Status::OK();
  }

  std::string name_;
  std::unique_ptr<AttributeSelector> selector_;
};

}  // namespace

std::unique_ptr<PartitioningAlgorithm> MakeUnbalancedAlgorithm(
    std::string name, std::unique_ptr<AttributeSelector> selector) {
  return std::make_unique<UnbalancedAlgorithm>(std::move(name),
                                               std::move(selector));
}

}  // namespace fairrank

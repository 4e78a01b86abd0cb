#include "fairness/auditor.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace fairrank {

namespace {

/// Always-on audit-level metrics: one bump per audit, so the cost is
/// invisible next to the search itself.
struct AuditMetrics {
  MetricCounter* audits;
  MetricCounter* truncated;
  MetricCounter* nodes;
  MetricHistogram* search_seconds;

  static const AuditMetrics& Get() {
    static const AuditMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new AuditMetrics();
      m->audits = registry.GetCounter("fairrank_audits_total",
                                      "Completed audits (search + report)");
      m->truncated = registry.GetCounter(
          "fairrank_audits_truncated_total",
          "Audits whose search stopped early (deadline / cancel / budget)");
      m->nodes = registry.GetCounter(
          "fairrank_audit_nodes_total",
          "Search nodes visited across all audits");
      m->search_seconds = registry.GetHistogram(
          "fairrank_audit_search_seconds",
          "Wall-clock seconds of the partition search phase");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

StatusOr<std::vector<size_t>> FairnessAuditor::ResolveProtectedAttributes(
    const AuditOptions& options) const {
  const Schema& schema = table_->schema();
  if (options.protected_attributes.empty()) {
    std::vector<size_t> indices = schema.ProtectedIndices();
    if (indices.empty()) {
      return Status::FailedPrecondition(
          "schema has no protected attributes and none were requested");
    }
    return indices;
  }
  std::vector<size_t> indices;
  indices.reserve(options.protected_attributes.size());
  for (const std::string& name : options.protected_attributes) {
    FAIRRANK_ASSIGN_OR_RETURN(size_t index, schema.FindIndex(name));
    indices.push_back(index);
  }
  return indices;
}

StatusOr<AuditResult> FairnessAuditor::Audit(const ScoringFunction& fn,
                                             const AuditOptions& options) const {
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores,
                            fn.ScoreAll(*table_));
  return AuditScores(std::move(scores), fn.Name(), options);
}

StatusOr<AuditResult> FairnessAuditor::AuditScores(
    std::vector<double> scores, const std::string& score_name,
    const AuditOptions& options) const {
  if (table_->num_rows() == 0) {
    return Status::FailedPrecondition("cannot audit an empty table");
  }
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                            ResolveProtectedAttributes(options));

  // Two evaluators: the *search* one carries the deadline / cancellation so
  // in-flight pairwise loops stop, while the *reporting* one stays unbounded
  // — metrics of the (possibly truncated) winner must not themselves fail
  // because the deadline has since expired.
  ResourceBudget budget = options.limits.MakeBudget();
  ExecutionContext context = options.limits.MakeContext(&budget);

  // Per-request trace: an "audit" root span with "search" / "report"
  // children; the search span is the parent of every algorithm and
  // evaluator span below it. Null trace = tracing off, zero-cost checks.
  // Head-based sampling decides here, once: an attached-but-unsampled
  // context degrades the whole pipeline to the identical null fast path,
  // so "tracing compiled in, sampling off" costs one boolean per audit —
  // not a timestamp per EMD (the <= 2% contract bench/trace_overhead.cc
  // enforces).
  TraceContext* trace = options.limits.trace;
  if (trace != nullptr && !trace->sampled()) trace = nullptr;
  ScopedSpan audit_span(trace, "audit");
  const int64_t search_span =
      trace != nullptr ? trace->StartSpan("search", audit_span.id()) : -1;
  context = context.WithTrace(trace, search_span);

  EvaluatorOptions search_evaluator_options = options.evaluator;
  search_evaluator_options.deadline = context.deadline();
  search_evaluator_options.cancel = context.cancel();
  search_evaluator_options.trace = trace;
  search_evaluator_options.trace_parent = search_span;
  EvaluatorOptions report_evaluator_options = options.evaluator;
  report_evaluator_options.trace = trace;
  report_evaluator_options.trace_parent = audit_span.id();
  std::vector<double> scores_copy = scores;
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator search_eval,
      UnfairnessEvaluator::Make(table_, std::move(scores_copy),
                                search_evaluator_options));
  FAIRRANK_ASSIGN_OR_RETURN(
      UnfairnessEvaluator eval,
      UnfairnessEvaluator::Make(table_, std::move(scores),
                                report_evaluator_options));
  AlgorithmConfig config;
  config.seed = options.seed;
  config.exhaustive = options.exhaustive;
  config.beam_width = options.beam_width;
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<PartitioningAlgorithm> algorithm,
                            MakeAlgorithmByName(options.algorithm, config));

  Stopwatch stopwatch;
  FAIRRANK_ASSIGN_OR_RETURN(SearchResult search,
                            algorithm->Run(search_eval, std::move(attrs),
                                           context));
  double seconds = stopwatch.ElapsedSeconds();
  if (trace != nullptr) trace->EndSpan(search_span);
  Partitioning partitioning = std::move(search.partitioning);

  const AuditMetrics& metrics = AuditMetrics::Get();
  metrics.audits->Increment();
  if (search.truncated) metrics.truncated->Increment();
  metrics.nodes->Increment(search.nodes_visited);
  metrics.search_seconds->Observe(seconds);

  ScopedSpan report_span(trace, "report", audit_span.id());
  AuditResult result;
  result.algorithm = algorithm->Name();
  result.scoring_function = score_name;
  result.seconds = seconds;
  result.truncated = search.truncated;
  result.exhaustion_reason = search.reason;
  result.nodes_visited = search.nodes_visited;
  result.nodes_per_sec =
      seconds > 0.0 ? static_cast<double>(search.nodes_visited) / seconds : 0.0;
  result.out_of_range_scores = search_eval.num_out_of_range();
  FAIRRANK_ASSIGN_OR_RETURN(result.unfairness,
                            eval.AveragePairwiseUnfairness(partitioning));
  result.attributes_used = AttributesUsed(table_->schema(), partitioning);
  if (options.num_worst_pairs > 0) {
    FAIRRANK_ASSIGN_OR_RETURN(
        std::vector<DivergentPair> pairs,
        TopDivergentPairs(eval, partitioning, options.num_worst_pairs));
    for (const DivergentPair& pair : pairs) {
      result.worst_pairs.push_back(
          {PartitionLabel(table_->schema(), partitioning[pair.index_a]),
           PartitionLabel(table_->schema(), partitioning[pair.index_b]),
           pair.distance});
    }
  }

  result.partitions.reserve(partitioning.size());
  for (const Partition& p : partitioning) {
    PartitionSummary summary;
    summary.label = PartitionLabel(table_->schema(), p);
    summary.size = p.size();
    summary.histogram = eval.BuildHistogram(p);
    double sum = 0.0;
    for (size_t row : p.rows) sum += eval.scores()[row];
    summary.mean_score = p.rows.empty() ? 0.0 : sum / p.size();
    result.partitions.push_back(std::move(summary));
  }
  std::stable_sort(result.partitions.begin(), result.partitions.end(),
                   [](const PartitionSummary& a, const PartitionSummary& b) {
                     return a.size > b.size;
                   });
  result.partitioning = std::move(partitioning);
  return result;
}

}  // namespace fairrank

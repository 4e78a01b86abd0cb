#include "steps.h"

#include <algorithm>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "fairness/option_flags.h"
#include "fairness/registry.h"
#include "fairness/report.h"
#include "marketplace/generator.h"

namespace perfbench {

using fairrank::AuditOptions;
using fairrank::AuditResult;
using fairrank::Partition;
using fairrank::Partitioning;
using fairrank::StatusOr;

StatusOr<AuditOptions> OptionsFromPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::FlagParser flags,
                            fairrank::FlagParser::FromPairs(pairs));
  return fairrank::AuditOptionsFromFlags(flags);
}

StatusOr<fairrank::Table> GenerateWorkers(size_t num_workers, uint64_t seed,
                                          SpanRecorder* recorder) {
  ScopedSpan span(recorder, "marketplace.generate", -1);
  fairrank::GeneratorOptions options;
  options.num_workers = num_workers;
  options.seed = seed;
  return fairrank::GenerateWorkers(options);
}

fairrank::Status TimeSetups(int reps,
                            const std::function<fairrank::Status()>& setup,
                            Outcome* outcome) {
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    FAIRRANK_RETURN_NOT_OK(setup());
    outcome->setup_s.push_back(timer.Seconds());
  }
  return fairrank::Status::OK();
}

namespace {

StatusOr<std::vector<size_t>> ProtectedIndices(const fairrank::Schema& schema,
                                               const AuditOptions& options) {
  if (options.protected_attributes.empty()) {
    std::vector<size_t> indices = schema.ProtectedIndices();
    if (indices.empty()) {
      return fairrank::Status::FailedPrecondition(
          "schema has no protected attributes");
    }
    return indices;
  }
  std::vector<size_t> indices;
  for (const std::string& name : options.protected_attributes) {
    FAIRRANK_ASSIGN_OR_RETURN(size_t index, schema.FindIndex(name));
    indices.push_back(index);
  }
  return indices;
}

}  // namespace

StatusOr<AuditResult> AuditInSteps(const fairrank::Table& table,
                                   std::vector<double> scores,
                                   const std::string& score_name,
                                   const AuditOptions& options,
                                   SpanRecorder* recorder, int parent,
                                   ReportWork* work) {
  const fairrank::Schema& schema = table.schema();
  FAIRRANK_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                            ProtectedIndices(schema, options));
  fairrank::ResourceBudget budget = options.limits.MakeBudget();
  fairrank::ExecutionContext context = options.limits.MakeContext(&budget);

  // As in AuditScores: the search evaluator honours the deadline, the
  // reporting evaluator stays unbounded.
  fairrank::EvaluatorOptions search_options = options.evaluator;
  search_options.deadline = context.deadline();
  search_options.cancel = context.cancel();
  StatusOr<fairrank::UnfairnessEvaluator> search_made =
      fairrank::Status::Internal("not made");
  StatusOr<fairrank::UnfairnessEvaluator> eval_made =
      fairrank::Status::Internal("not made");
  {
    ScopedSpan span(recorder, "fairness.evaluator.make", parent);
    search_made = fairrank::UnfairnessEvaluator::Make(&table, scores,
                                                      search_options);
    eval_made = fairrank::UnfairnessEvaluator::Make(&table, std::move(scores),
                                                    options.evaluator);
  }
  FAIRRANK_RETURN_NOT_OK(search_made.status());
  FAIRRANK_RETURN_NOT_OK(eval_made.status());
  const fairrank::UnfairnessEvaluator& search_eval = *search_made;
  const fairrank::UnfairnessEvaluator& eval = *eval_made;

  AuditResult result;
  fairrank::SearchResult search;
  {
    ScopedSpan span(recorder, "fairness.search." + options.algorithm, parent);
    fairrank::AlgorithmConfig config;
    config.seed = options.seed;
    config.exhaustive = options.exhaustive;
    config.beam_width = options.beam_width;
    FAIRRANK_ASSIGN_OR_RETURN(
        std::unique_ptr<fairrank::PartitioningAlgorithm> algorithm,
        fairrank::MakeAlgorithmByName(options.algorithm, config));
    fairrank::Stopwatch stopwatch;
    FAIRRANK_ASSIGN_OR_RETURN(search,
                              algorithm->Run(search_eval, attrs, context));
    result.seconds = stopwatch.ElapsedSeconds();
    result.algorithm = algorithm->Name();
  }

  {
    ScopedSpan report_span(recorder, "fairness.report." + options.algorithm,
                           parent);
    Partitioning partitioning = std::move(search.partitioning);
    result.scoring_function = score_name;
    result.truncated = search.truncated;
    result.exhaustion_reason = search.reason;
    result.nodes_visited = search.nodes_visited;
    result.nodes_per_sec =
        result.seconds > 0.0 ? search.nodes_visited / result.seconds : 0.0;
    result.out_of_range_scores = search_eval.num_out_of_range();
    const uint64_t k = partitioning.size();
    const uint64_t pairs = k < 2 ? 0 : k * (k - 1) / 2;
    {
      ScopedSpan span(recorder, "fairness.evaluator.pairwise",
                      report_span.id());
      FAIRRANK_ASSIGN_OR_RETURN(result.unfairness,
                                eval.AveragePairwiseUnfairness(partitioning));
      work->unfairness_pairs += pairs;
    }
    result.attributes_used = fairrank::AttributesUsed(schema, partitioning);
    if (options.num_worst_pairs > 0) {
      FAIRRANK_ASSIGN_OR_RETURN(
          std::vector<fairrank::DivergentPair> worst,
          fairrank::TopDivergentPairs(eval, partitioning,
                                      options.num_worst_pairs));
      work->top_pairs += pairs;
      for (const fairrank::DivergentPair& pair : worst) {
        result.worst_pairs.push_back(
            {fairrank::PartitionLabel(schema, partitioning[pair.index_a]),
             fairrank::PartitionLabel(schema, partitioning[pair.index_b]),
             pair.distance});
      }
    }
    result.partitions.reserve(partitioning.size());
    for (const Partition& p : partitioning) {
      fairrank::PartitionSummary summary;
      summary.label = fairrank::PartitionLabel(schema, p);
      summary.size = p.size();
      summary.histogram = eval.BuildHistogram(p);
      double sum = 0.0;
      for (size_t row : p.rows) sum += eval.scores()[row];
      summary.mean_score = p.rows.empty() ? 0.0 : sum / p.size();
      result.partitions.push_back(std::move(summary));
    }
    std::stable_sort(result.partitions.begin(), result.partitions.end(),
                     [](const fairrank::PartitionSummary& a,
                        const fairrank::PartitionSummary& b) {
                       return a.size > b.size;
                     });
    result.partitioning = std::move(partitioning);
  }
  // AuditScores frees both evaluators (and what they memoized) before it
  // returns; time that too.
  ScopedSpan release(recorder, "fairness.evaluator.release", parent);
  search_made = fairrank::Status::Cancelled("released");
  eval_made = fairrank::Status::Cancelled("released");
  return result;
}

StatusOr<AuditOutput> ScoreAndAudit(const fairrank::Table& table,
                                    const fairrank::ScoringFunction& fn,
                                    const AuditOptions& options,
                                    SpanRecorder* recorder, int parent,
                                    ReportWork* work) {
  StatusOr<std::vector<double>> scores = fairrank::Status::Internal("unset");
  {
    ScopedSpan span(recorder, "marketplace.score", parent);
    scores = fn.ScoreAll(table);
  }
  FAIRRANK_RETURN_NOT_OK(scores.status());
  const PipelineCounts before = PipelineCounts::Read();
  StatusOr<AuditResult> result = fairrank::Status::Internal("unset");
  if (recorder == nullptr) {
    result = fairrank::FairnessAuditor(&table).AuditScores(
        std::move(scores).value(), fn.Name(), options);
  } else {
    result = AuditInSteps(table, std::move(scores).value(), fn.Name(),
                          options, recorder, parent, work);
  }
  FAIRRANK_RETURN_NOT_OK(result.status());
  AuditOutput out;
  out.pipeline = PipelineCounts::Read() - before;
  out.result = std::move(result).value();
  std::string json;
  {
    ScopedSpan span(recorder, "fairness.report.render", parent);
    json = fairrank::FormatAuditJson(out.result);
  }
  out.masked_json = MaskTimings(json);
  // Callers keep outputs across operations; the winner's row sets are not
  // needed past the report, and keeping them would count the benchmark's
  // own memory in peak_rss_mb.
  out.result.partitioning = {};
  out.counts = {out.result.nodes_visited, out.pipeline.histogram_builds,
                out.pipeline.divergence_evals,
                ReportPairs(out.result.partitions.size(),
                            options.num_worst_pairs)};
  return out;
}

}  // namespace perfbench

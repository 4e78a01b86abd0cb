#ifndef FAIRRANK_PERFBENCH_STEPS_H_
#define FAIRRANK_PERFBENCH_STEPS_H_

// The calls the workloads share: set-up timing, population generation, and
// one audit, either through FairnessAuditor::AuditScores or in its traced
// form, one public call at a time under a span of the layer it calls.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "fairness/auditor.h"
#include "marketplace/scoring.h"
#include "measure.h"
#include "spans.h"

namespace perfbench {

/// Times `reps` calls of `setup` into Outcome::setup_s. Untraced runs set
/// up (reps + 1) / 2 times before the timed phase and reps / 2 times after
/// it, so setup_s samples the machine at two moments.
fairrank::Status TimeSetups(int reps,
                            const std::function<fairrank::Status()>& setup,
                            Outcome* outcome);

/// The paper's uniform worker population, under a "marketplace.generate"
/// span.
fairrank::StatusOr<fairrank::Table> GenerateWorkers(size_t num_workers,
                                                    uint64_t seed,
                                                    SpanRecorder* recorder);

/// Audit options exactly as fairaudit and fairauditd build them from
/// their flags / query parameters.
fairrank::StatusOr<fairrank::AuditOptions> OptionsFromPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs);

/// Produces the same AuditResult as FairnessAuditor(&table).AuditScores(
/// scores, score_name, options), except for timings and evaluator-cache
/// counters, recording spans under `parent`:
///   fairness.evaluator.make      both evaluators
///   fairness.search.<algorithm>  MakeAlgorithmByName + Run
///   fairness.report.<algorithm>  unfairness, worst pairs, partition
///                                summaries; contains
///   fairness.evaluator.pairwise  AveragePairwiseUnfairness of the winner
///   fairness.evaluator.release   freeing both evaluators
fairrank::StatusOr<fairrank::AuditResult> AuditInSteps(
    const fairrank::Table& table, std::vector<double> scores,
    const std::string& score_name, const fairrank::AuditOptions& options,
    SpanRecorder* recorder, int parent, ReportWork* work);

/// What one audit produced.
struct AuditOutput {
  fairrank::AuditResult result;
  std::string masked_json;  ///< FormatAuditJson, through MaskTimings.
  PipelineCounts pipeline;  ///< Registry counter deltas around the audit.
  WorkCounts counts;        ///< Its exact work counts.
};

/// One audit as fairaudit runs it once its table is loaded: ScoreAll,
/// AuditScores and FormatAuditJson, each under its span below `parent`.
/// With a recorder, AuditScores runs as AuditInSteps.
fairrank::StatusOr<AuditOutput> ScoreAndAudit(
    const fairrank::Table& table, const fairrank::ScoringFunction& fn,
    const fairrank::AuditOptions& options, SpanRecorder* recorder, int parent,
    ReportWork* work);

}  // namespace perfbench

#endif  // FAIRRANK_PERFBENCH_STEPS_H_

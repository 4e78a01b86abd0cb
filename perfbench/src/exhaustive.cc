// exhaustive_500 — a complete exhaustive search on the 500-worker
// population over Gender, Country and YearOfBirth with alpha:0.5 scoring
// (`fairaudit audit --algorithm exhaustive --attributes ...`): 423,628
// partitionings, no truncation. Each operation scores the table, audits and
// renders the JSON; every repetition must match the first exactly, and the
// optimum must score at least what balanced finds on the same attributes.

#include <cstdio>
#include <string>
#include <vector>

#include "fairness/option_flags.h"
#include "steps.h"
#include "workloads.h"

namespace perfbench {

using fairrank::Status;

namespace {

constexpr size_t kWorkers = 500;
constexpr const char* kFunction = "alpha:0.5";
constexpr const char* kAttributes = "Gender,Country,YearOfBirth";
/// Optimum at the default seed (fairaudit reports 0.085812).
constexpr double kGolden = 0.085812;
constexpr double kTolerance = 1e-3;
constexpr int kMinOps = 2;
constexpr int kSetupReps = 101;

/// One search, or why it failed.
struct Repetition {
  std::string problem;
  AuditOutput output;
};

Repetition RunOnce(const fairrank::Table& workers,
                   const fairrank::ScoringFunction& fn,
                   const fairrank::AuditOptions& options,
                   SpanRecorder* recorder, ReportWork* work) {
  Repetition rep;
  fairrank::StatusOr<AuditOutput> output =
      ScoreAndAudit(workers, fn, options, recorder, -1, work);
  if (!output.ok()) {
    rep.problem = output.status().ToString();
    return rep;
  }
  rep.output = std::move(output).value();
  if (rep.output.result.truncated) rep.problem = "truncated";
  return rep;
}

/// Checks a repetition against the first one, balanced's score and, at the
/// default seed, the golden optimum.
std::string Check(const RunConfig& config, const Repetition& first,
                  const Repetition& rep, double balanced) {
  if (!rep.problem.empty()) return rep.problem;
  std::string problem =
      CompareCounts("exhaustive", first.output.counts, rep.output.counts);
  if (!problem.empty()) return problem;
  if (rep.output.masked_json != first.output.masked_json) {
    return "differs from first run";
  }
  const double unfairness = rep.output.result.unfairness;
  if (unfairness < balanced) {
    return "optimum " + std::to_string(unfairness) + " is below balanced's " +
           std::to_string(balanced);
  }
  if (config.golden()) {
    return CheckNear("unfairness", unfairness, kGolden, kTolerance);
  }
  return "";
}

}  // namespace

Status RunExhaustive(const RunConfig& config, SpanRecorder* recorder,
                     Outcome* outcome) {
  fairrank::StatusOr<fairrank::Table> workers = Status::Internal("no set-up");
  auto setup = [&] {
    workers = GenerateWorkers(kWorkers, config.seed, recorder);
    return workers.status();
  };
  FAIRRANK_RETURN_NOT_OK(TimeSetups(
      recorder != nullptr ? 1 : (kSetupReps + 1) / 2, setup, outcome));
  FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<fairrank::ScoringFunction> fn,
                            fairrank::MakeFunctionFromSpec(kFunction));
  FAIRRANK_ASSIGN_OR_RETURN(
      fairrank::AuditOptions options,
      OptionsFromPairs({{"algorithm", "exhaustive"},
                        {"attributes", kAttributes}}));
  FAIRRANK_ASSIGN_OR_RETURN(
      fairrank::AuditOptions balanced_options,
      OptionsFromPairs({{"algorithm", "balanced"},
                        {"attributes", kAttributes}}));
  FAIRRANK_ASSIGN_OR_RETURN(
      fairrank::AuditResult balanced,
      fairrank::FairnessAuditor(&*workers).Audit(*fn, balanced_options));

  if (recorder == nullptr) {
    Repetition first;
    Timer phase;
    for (int op = 0; op < kMinOps || phase.Seconds() < config.seconds;
         ++op) {
      Timer watch;
      Repetition rep = RunOnce(*workers, *fn, options, nullptr, nullptr);
      outcome->op_ms.push_back(watch.Millis());
      if (op == 0) first = rep;
      outcome->Op("exhaustive #" + std::to_string(op),
                  Check(config, first, rep, balanced.unfairness));
    }
    outcome->measured_s = phase.Seconds();
    std::printf("optimum %.6f (balanced %.6f), %llu partitionings\n",
                first.output.result.unfairness, balanced.unfairness,
                static_cast<unsigned long long>(first.output.counts.nodes));
    return TimeSetups(kSetupReps / 2, setup, outcome);
  }

  Timer untraced;
  const Repetition first = RunOnce(*workers, *fn, options, nullptr, nullptr);
  const double untraced_s = untraced.Seconds();
  outcome->Op("untraced exhaustive",
              Check(config, first, first, balanced.unfairness));
  ReportWork work;
  const int64_t pass_start = NowNs();
  const Repetition traced = RunOnce(*workers, *fn, options, recorder, &work);
  const int64_t pass_end = NowNs();
  outcome->Op("traced exhaustive",
              Check(config, first, traced, balanced.unfairness));
  AddEvaluatorCounts(first.output.pipeline, outcome);
  AddSpanMetrics(recorder->Snapshot(), pass_start, pass_end, work, outcome);
  AddOverhead((pass_end - pass_start) * 1e-9, untraced_s, outcome);
  outcome->layer["fairness.search.nodes.exhaustive"] =
      static_cast<double>(traced.output.counts.nodes);
  return Status::OK();
}

}  // namespace perfbench

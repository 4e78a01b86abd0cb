// biased_csv_1m — the CLI audit path at scale. Set-up writes a 1,000,000-
// worker uniform CSV; each operation is one `fairaudit audit`: ReadCsvFile
// -> ScoreAll -> AuditScores -> FormatAuditJson. The operations are
// {balanced, unbalanced} x f6..f9 with Table 3's function seeds (7 + i).
//
// Traced run: one pass of the eight audits untraced, one in traced steps
// (which must agree exactly), then the cell-store path on the same table:
// BuildCellStoreParallel + AuditAggregateBalanced per function.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "data/csv.h"
#include "fairness/aggregate.h"
#include "fairness/option_flags.h"
#include "marketplace/worker.h"
#include "steps.h"
#include "workloads.h"

namespace perfbench {

using fairrank::Status;

namespace {

constexpr size_t kWorkers = 1'000'000;
constexpr double kTolerance = 1e-3;
constexpr int kSetupReps = 3;

struct CsvAudit {
  const char* function;   ///< fairaudit --function spec.
  const char* algorithm;
  /// Attributes balanced must recover (any seed); empty: not checked.
  std::vector<std::string> recovers;
  double golden;  ///< Unfairness at the default seed.
};

const std::vector<CsvAudit>& Audits() {
  static const std::vector<CsvAudit> audits = {
      {"f6:13", "balanced", {"Gender"}, 0.799945},
      {"f7:14", "balanced", {"Gender", "Country"}, 0.426685},
      {"f8:15", "balanced", {"Gender", "Country"}, 0.308979},
      {"f9:16", "balanced", {"Language", "Ethnicity"}, 0.289627},
      {"f6:13", "unbalanced", {}, 0.799945},
      {"f7:14", "unbalanced", {}, 0.480027},
      {"f8:15", "unbalanced", {}, 0.308979},
      {"f9:16", "unbalanced", {}, 0.361090},
  };
  return audits;
}

/// One audit, or why it failed.
struct AuditRun {
  std::string problem;
  AuditOutput output;
};

std::string CheckAudit(const RunConfig& config, const CsvAudit& audit,
                       const fairrank::AuditResult& result) {
  if (result.truncated) return "truncated";
  if (!audit.recovers.empty() && result.attributes_used != audit.recovers) {
    std::string got;
    for (const std::string& a : result.attributes_used) got += a + " ";
    return "balanced split on [" + got + "], not on the biased attributes";
  }
  if (config.golden()) {
    return CheckNear("unfairness", result.unfairness, audit.golden,
                     kTolerance);
  }
  return "";
}

/// One `fairaudit audit --input <csv> --function F --algorithm A --json`.
AuditRun RunAudit(const RunConfig& config, const std::string& csv,
                  const CsvAudit& audit, SpanRecorder* recorder,
                  ReportWork* work) {
  AuditRun run;
  auto fail = [&run](const Status& status) {
    run.problem = status.ToString();
    return run;
  };
  fairrank::StatusOr<fairrank::Schema> schema =
      fairrank::MakePaperWorkerSchema();
  if (!schema.ok()) return fail(schema.status());
  fairrank::StatusOr<fairrank::Table> table = Status::Internal("not read");
  {
    ScopedSpan span(recorder, "data.read_csv", -1);
    table = fairrank::ReadCsvFile(csv, *schema);
  }
  if (!table.ok()) return fail(table.status());
  if (table->num_rows() != kWorkers) {
    return fail(Status::Internal("read " + std::to_string(table->num_rows()) +
                                 " rows"));
  }
  fairrank::StatusOr<std::unique_ptr<fairrank::ScoringFunction>> fn =
      fairrank::MakeFunctionFromSpec(audit.function);
  if (!fn.ok()) return fail(fn.status());
  fairrank::StatusOr<fairrank::AuditOptions> options =
      OptionsFromPairs({{"algorithm", audit.algorithm}});
  if (!options.ok()) return fail(options.status());
  fairrank::StatusOr<AuditOutput> output =
      ScoreAndAudit(*table, **fn, *options, recorder, -1, work);
  if (!output.ok()) return fail(output.status());
  run.output = std::move(output).value();
  run.problem = CheckAudit(config, audit, run.output.result);
  return run;
}

/// The cell-store path on the same table: ingest, then the balanced audit
/// over cells, which must agree with the row-based balanced audit.
Status RunAggregate(const std::string& csv, const std::vector<AuditRun>& rows,
                    SpanRecorder* recorder, Outcome* outcome) {
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::Schema schema,
                            fairrank::MakePaperWorkerSchema());
  FAIRRANK_ASSIGN_OR_RETURN(fairrank::Table table,
                            fairrank::ReadCsvFile(csv, schema));
  for (size_t i = 0; i < Audits().size(); ++i) {
    const CsvAudit& audit = Audits()[i];
    if (audit.recovers.empty()) continue;  // The cell store audits balanced.
    FAIRRANK_ASSIGN_OR_RETURN(std::unique_ptr<fairrank::ScoringFunction> fn,
                              fairrank::MakeFunctionFromSpec(audit.function));
    FAIRRANK_ASSIGN_OR_RETURN(std::vector<double> scores,
                              fn->ScoreAll(table));
    fairrank::StatusOr<fairrank::CellStore> store = Status::Internal("unset");
    {
      ScopedSpan span(recorder, "fairness.aggregate.ingest", -1);
      store = fairrank::BuildCellStoreParallel(table, scores);
    }
    FAIRRANK_RETURN_NOT_OK(store.status());
    outcome->layer["fairness.aggregate.cells"] =
        static_cast<double>(store->num_cells());
    fairrank::StatusOr<fairrank::AggregateAuditResult> result =
        Status::Internal("unset");
    {
      ScopedSpan span(recorder, "fairness.aggregate.audit", -1);
      result = fairrank::AuditAggregateBalanced(*store);
    }
    const std::string what = std::string("cell-store balanced ") +
                             audit.function;
    if (!result.ok()) {
      outcome->Op(what, result.status().ToString());
      continue;
    }
    std::set<std::string> attributes;
    for (size_t spec : result->attributes_used) {
      attributes.insert(store->specs()[spec].name());
    }
    const fairrank::AuditResult& row_based = rows[i].output.result;
    std::string problem = CheckNear(what + " vs row-based", result->unfairness,
                                    row_based.unfairness, 1e-9);
    if (problem.empty() &&
        attributes != std::set<std::string>(row_based.attributes_used.begin(),
                                            row_based.attributes_used.end())) {
      problem = "cell store split on other attributes than the row audit";
    }
    outcome->Op(what, problem);
  }
  return Status::OK();
}

}  // namespace

Status RunBiasedCsv(const RunConfig& config, SpanRecorder* recorder,
                    Outcome* outcome) {
  const std::string csv = config.data_dir + "/workers_1m.csv";
  auto setup = [&]() -> Status {
    FAIRRANK_ASSIGN_OR_RETURN(fairrank::Table workers,
                              GenerateWorkers(kWorkers, config.seed, recorder));
    ScopedSpan span(recorder, "data.write_csv", -1);
    return fairrank::WriteCsvFile(csv, workers);
  };
  FAIRRANK_RETURN_NOT_OK(TimeSetups(
      recorder != nullptr ? 1 : (kSetupReps + 1) / 2, setup, outcome));

  const std::vector<CsvAudit>& audits = Audits();
  std::vector<AuditRun> first(audits.size());
  if (recorder == nullptr) {
    // Whole passes over the eight audits; a later pass must repeat the
    // first exactly.
    Timer phase;
    for (int pass = 0; pass == 0 || phase.Seconds() < config.seconds;
         ++pass) {
      for (size_t i = 0; i < audits.size(); ++i) {
        Timer watch;
        AuditRun run = RunAudit(config, csv, audits[i], nullptr, nullptr);
        outcome->op_ms.push_back(watch.Millis());
        const std::string what =
            std::string(audits[i].algorithm) + " " + audits[i].function;
        if (pass == 0) {
          first[i] = run;
        } else if (run.problem.empty()) {
          run.problem =
              CompareCounts(what, first[i].output.counts, run.output.counts);
          if (run.problem.empty() &&
              run.output.masked_json != first[i].output.masked_json) {
            run.problem = "report differs from the first pass";
          }
        }
        outcome->Op(what, run.problem);
      }
    }
    outcome->measured_s = phase.Seconds();
    Status status = TimeSetups(kSetupReps / 2, setup, outcome);
    std::remove(csv.c_str());
    return status;
  }

  Timer untraced;
  for (size_t i = 0; i < audits.size(); ++i) {
    first[i] = RunAudit(config, csv, audits[i], nullptr, nullptr);
    outcome->Op(std::string("untraced ") + audits[i].function,
                first[i].problem);
  }
  const double untraced_s = untraced.Seconds();
  ReportWork work;
  const int64_t pass_start = NowNs();
  for (size_t i = 0; i < audits.size(); ++i) {
    AuditRun run = RunAudit(config, csv, audits[i], recorder, &work);
    const std::string what = std::string("traced ") + audits[i].algorithm +
                             " " + audits[i].function;
    if (run.problem.empty()) {
      run.problem =
          CompareCounts(what, first[i].output.counts, run.output.counts);
    }
    if (run.problem.empty() &&
        run.output.masked_json != first[i].output.masked_json) {
      run.problem = "traced steps and AuditScores disagree";
    }
    outcome->layer[std::string("fairness.search.nodes.") +
                   audits[i].algorithm] +=
        static_cast<double>(run.output.counts.nodes);
    outcome->Op(what, run.problem);
  }
  const int64_t pass_end = NowNs();
  PipelineCounts pipeline;
  for (const AuditRun& run : first) pipeline += run.output.pipeline;
  AddEvaluatorCounts(pipeline, outcome);
  FAIRRANK_RETURN_NOT_OK(RunAggregate(csv, first, recorder, outcome));
  AddSpanMetrics(recorder->Snapshot(), pass_start, pass_end, work, outcome);
  AddOverhead((pass_end - pass_start) * 1e-9, untraced_s, outcome);
  outcome->layer["data.csv_rows"] = static_cast<double>(kWorkers);
  std::remove(csv.c_str());
  return Status::OK();
}

}  // namespace perfbench

// table2_grid — the paper's Table 2: 7300 uniform workers, the five paper
// algorithms x f1..f5, baseline seed 2, one serial AuditSuite::Run plus
// FormatSuiteJson per operation (what bench/table2_7300_workers runs).
//
// Traced run: (a) the suite as above, under one span, for the grid wall and
// its evaluator counts; (b) the f1 column's five cells as independent
// AuditScores calls, untraced; (c) all 25 cells as independent audits in
// traced steps. (c) must match (b) exactly on results and work counts, and
// the suite on nodes, partitions and unfairness; (a)'s wall minus (c)'s
// cell spans is what the suite adds to (or saves over) independent audits.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fairness/suite.h"
#include "marketplace/scoring.h"
#include "steps.h"
#include "workloads.h"

namespace perfbench {

using fairrank::Status;

namespace {

constexpr size_t kWorkers = 7300;
constexpr uint64_t kBaselineSeed = 2;
constexpr int kSetupReps = 11;
/// The golden test's tolerance.
constexpr double kTolerance = 1e-3;
/// Table 2's average EMD at the default seed: rows in PaperAlgorithmNames()
/// order (unbalanced, r-unbalanced, balanced, r-balanced, all-attributes),
/// columns f1..f5.
constexpr double kGolden[5][5] = {
    {0.167880, 0.178909, 0.179632, 0.230507, 0.228677},
    {0.165709, 0.179519, 0.179311, 0.229226, 0.227983},
    {0.167432, 0.178791, 0.179512, 0.231737, 0.230504},
    {0.167432, 0.178791, 0.179512, 0.231737, 0.230504},
    {0.167432, 0.178791, 0.179512, 0.231737, 0.230504},
};

/// Checks every cell of a suite result; one operation per cell.
void CheckGrid(const RunConfig& config,
               const fairrank::StatusOr<fairrank::SuiteResult>& result,
               Outcome* outcome) {
  const size_t rows = 5;
  const size_t cols = 5;
  for (size_t a = 0; a < rows; ++a) {
    for (size_t f = 0; f < cols; ++f) {
      const std::string what = "table2 cell " + std::to_string(a) + "," +
                               std::to_string(f);
      if (!result.ok()) {
        outcome->Op(what, result.status().ToString());
        continue;
      }
      if (result->cells.size() != rows || result->cells[a].size() != cols) {
        outcome->Op(what, "grid is not 5x5");
        continue;
      }
      const fairrank::SuiteCell& cell = result->cells[a][f];
      std::string problem;
      if (!cell.error.ok()) {
        problem = cell.error.ToString();
      } else if (cell.truncated) {
        problem = "truncated";
      } else if (config.golden()) {
        problem = CheckNear(cell.algorithm + "/" + cell.function,
                            cell.unfairness, kGolden[a][f], kTolerance);
      }
      outcome->Op(what, problem);
    }
  }
}

}  // namespace

Status RunTable2Grid(const RunConfig& config, SpanRecorder* recorder,
                     Outcome* outcome) {
  // Set-up: the population and the five functions, repeated so setup_s is
  // a median.
  fairrank::StatusOr<fairrank::Table> workers = Status::Internal("no set-up");
  std::vector<std::unique_ptr<fairrank::ScoringFunction>> functions;
  auto setup = [&] {
    workers = GenerateWorkers(kWorkers, config.seed, recorder);
    functions = fairrank::MakePaperRandomFunctions();
    return workers.status();
  };
  FAIRRANK_RETURN_NOT_OK(TimeSetups(
      recorder != nullptr ? 1 : (kSetupReps + 1) / 2, setup, outcome));
  std::vector<const fairrank::ScoringFunction*> borrowed;
  for (const auto& fn : functions) borrowed.push_back(fn.get());
  fairrank::SuiteOptions options;
  options.seed = kBaselineSeed;
  options.num_threads = 1;
  fairrank::AuditSuite suite(&*workers);

  if (recorder == nullptr) {
    Timer phase;
    do {
      Timer watch;
      fairrank::StatusOr<fairrank::SuiteResult> result =
          suite.Run(borrowed, options);
      std::string json = result.ok() ? fairrank::FormatSuiteJson(*result) : "";
      outcome->op_ms.push_back(watch.Millis());
      CheckGrid(config, result, outcome);
      if (result.ok()) {
        for (const auto& row : result->cells) {
          for (const fairrank::SuiteCell& cell : row) {
            std::printf("%-15s %-16s unfairness %.6f  k %5zu  nodes %llu\n",
                        cell.algorithm.c_str(), cell.function.c_str(),
                        cell.unfairness, cell.num_partitions,
                        static_cast<unsigned long long>(cell.nodes_visited));
          }
        }
        std::printf("grid: %zu bytes of JSON\n", json.size());
      }
    } while (phase.Seconds() < config.seconds);
    outcome->measured_s = phase.Seconds();
    return TimeSetups(kSetupReps / 2, setup, outcome);
  }

  // (a) The suite itself.
  const PipelineCounts before = PipelineCounts::Read();
  const int64_t suite_start = NowNs();
  fairrank::StatusOr<fairrank::SuiteResult> grid = Status::Internal("not run");
  {
    ScopedSpan span(recorder, "fairness.suite.run", -1);
    grid = suite.Run(borrowed, options);
  }
  const double suite_s = (NowNs() - suite_start) * 1e-9;
  AddEvaluatorCounts(PipelineCounts::Read() - before, outcome);
  if (grid.ok()) {
    ScopedSpan span(recorder, "fairness.report.render", -1);
    std::string json = fairrank::FormatSuiteJson(*grid);
  }
  CheckGrid(config, grid, outcome);
  FAIRRANK_RETURN_NOT_OK(grid.status());

  // (b) The first column's cells as independent audits, untraced: the
  // reference for (c)'s results, counts and overhead.
  auto cell_options = [&](size_t a, size_t f) {
    fairrank::AuditOptions audit;
    audit.algorithm = grid->algorithms[a];
    audit.seed = kBaselineSeed + f;
    audit.num_worst_pairs = 0;
    return audit;
  };
  const size_t rows = grid->algorithms.size();
  std::vector<AuditOutput> untraced(rows);
  double untraced_s = 0.0;
  for (size_t a = 0; a < rows; ++a) {
    Timer watch;
    FAIRRANK_ASSIGN_OR_RETURN(
        untraced[a], ScoreAndAudit(*workers, *functions[0], cell_options(a, 0),
                                   nullptr, -1, nullptr));
    untraced_s += watch.Seconds();
  }

  // (c) Every cell in traced steps.
  ReportWork work;
  const int64_t pass_start = NowNs();
  double cell_span_s = 0.0;
  double first_column_traced_s = 0.0;
  for (size_t f = 0; f < functions.size(); ++f) {
    for (size_t a = 0; a < rows; ++a) {
      const fairrank::SuiteCell& cell = grid->cells[a][f];
      const int64_t cell_start = NowNs();
      fairrank::StatusOr<AuditOutput> traced = Status::Internal("not run");
      {
        ScopedSpan span(recorder, "cell", -1);
        traced = ScoreAndAudit(*workers, *functions[f], cell_options(a, f),
                               recorder, span.id(), &work);
      }
      const double cell_s = (NowNs() - cell_start) * 1e-9;
      cell_span_s += cell_s;
      if (f == 0) first_column_traced_s += cell_s;
      const std::string what = "traced cell " + cell.algorithm + "/" +
                               cell.function;
      if (!traced.ok()) {
        outcome->Op(what, traced.status().ToString());
        continue;
      }
      const fairrank::AuditResult& result = traced->result;
      outcome->layer["fairness.search.nodes." + cell.algorithm] +=
          static_cast<double>(result.nodes_visited);
      std::string problem;
      if (f == 0) {
        problem = CompareCounts(what, untraced[a].counts, traced->counts);
        if (problem.empty() && traced->masked_json != untraced[a].masked_json) {
          problem = "traced steps and AuditScores disagree";
        }
      }
      if (problem.empty() && (result.nodes_visited != cell.nodes_visited ||
                              result.partitions.size() !=
                                  cell.num_partitions)) {
        problem = "replayed cell differs from the suite's";
      }
      if (problem.empty()) {
        problem = CheckNear(what + " unfairness vs suite", result.unfairness,
                            cell.unfairness, 1e-12);
      }
      outcome->Op(what, problem);
    }
  }
  const int64_t pass_end = NowNs();
  AddSpanMetrics(recorder->Snapshot(), pass_start, pass_end, work, outcome);
  AddOverhead(first_column_traced_s, untraced_s, outcome);
  outcome->layer["fairness.suite.overhead_s"] = suite_s - cell_span_s;
  std::printf("suite %.3f s; cells as independent audits %.3f s traced\n",
              suite_s, (pass_end - pass_start) * 1e-9);
  return Status::OK();
}

}  // namespace perfbench

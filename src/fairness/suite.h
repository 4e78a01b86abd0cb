#ifndef FAIRRANK_FAIRNESS_SUITE_H_
#define FAIRRANK_FAIRNESS_SUITE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fairness/auditor.h"

namespace fairrank {

/// How SuiteOptions::limits' node/memory budgets apply to the grid.
enum class SuiteBudgetMode {
  /// One parent budget for the whole grid: every cell charges a shared
  /// hierarchical budget, so `max_nodes` / `max_memory_mb` bound the
  /// *aggregate* work of all cells — the per-request shape a production
  /// deployment needs. Cells reached after exhaustion degrade to truncated
  /// best-so-far answers, keeping the grid complete. Default.
  kTotal,
  /// Legacy semantics: every cell gets the full allowance, so an A×F grid
  /// may spend A×F times the stated budget.
  kPerCell,
};

/// Configuration of a comparative audit grid (the shape of the paper's
/// Tables 1-3: rows = algorithms, columns = scoring functions).
struct SuiteOptions {
  /// Algorithm names; empty means the paper's five (PaperAlgorithmNames).
  std::vector<std::string> algorithms;
  /// Evaluator configuration shared by every cell.
  EvaluatorOptions evaluator;
  /// Base seed; cell (a, f) derives seed + f for its randomized baseline so
  /// every algorithm sees the same stream per function.
  uint64_t seed = 0;
  /// Restrict the searched protected attributes (empty = all).
  std::vector<std::string> protected_attributes;
  /// Execution limits for the grid. The deadline is *shared*: it is armed
  /// once before the first cell, so a 10s timeout bounds the whole grid
  /// (late cells degrade to truncated best-so-far answers, keeping the grid
  /// complete). Precedence: when both a pre-armed finite `deadline` and a
  /// positive `timeout_ms` are supplied, the *earlier* of the two wins —
  /// neither overrides the other. Node/memory budgets apply per
  /// `budget_mode`.
  ExecutionLimits limits;
  /// How `limits.max_nodes` / `limits.max_memory_mb` bound the grid.
  SuiteBudgetMode budget_mode = SuiteBudgetMode::kTotal;
  /// Worker threads for the grid itself: cells are dispatched onto a
  /// dynamically scheduled pool (ParallelForEach), results assembled in
  /// deterministic (algorithm, function) order regardless of completion
  /// order. 1 = serial (default). For deterministic algorithms results are
  /// bit-identical across thread counts.
  int num_threads = 1;
};

/// One (algorithm, function) cell of the grid.
struct SuiteCell {
  std::string algorithm;
  std::string function;
  double unfairness = 0.0;
  double seconds = 0.0;
  size_t num_partitions = 0;
  std::vector<std::string> attributes_used;
  bool truncated = false;  ///< Search stopped early; see AuditResult.
  /// Why the search truncated; kNone when it ran to completion.
  ExhaustionReason exhaustion_reason = ExhaustionReason::kNone;
  uint64_t nodes_visited = 0;  ///< Search work; see AuditResult.
  double nodes_per_sec = 0.0;  ///< Search throughput of this cell.
  /// Non-OK when this cell's audit failed: the failure degrades the cell
  /// (rendered as ERR, metrics zeroed), never the grid — completed cells
  /// are always kept.
  Status error = Status::OK();
};

/// Grid-level observability: what the whole suite cost and how it degraded.
struct SuiteSummary {
  double wall_seconds = 0.0;   ///< Wall-clock of the whole grid run.
  double cell_seconds = 0.0;   ///< Sum of per-cell audit runtimes (the
                               ///< serial-equivalent cost; cell_seconds /
                               ///< wall_seconds ~ parallel speedup).
  uint64_t total_nodes = 0;    ///< Aggregate search work across all cells.
  double nodes_per_sec = 0.0;  ///< total_nodes / wall_seconds.
  size_t cells_truncated = 0;  ///< Cells whose search stopped early.
  size_t cells_failed = 0;     ///< Cells carrying a non-OK SuiteCell::error.
};

/// A full grid of audits.
struct SuiteResult {
  std::vector<std::string> algorithms;           ///< Row labels.
  std::vector<std::string> functions;            ///< Column labels.
  std::vector<std::vector<SuiteCell>> cells;     ///< [algorithm][function].
  SuiteSummary summary;
};

/// Runs every algorithm against every function on one table — the
/// programmatic form of the paper's evaluation; bench/table* are thin
/// wrappers over this.
class AuditSuite {
 public:
  /// `table` must outlive the suite.
  explicit AuditSuite(const Table* table) : table_(table) {}

  /// Runs the grid: cells are scheduled onto SuiteOptions::num_threads
  /// workers under one shared deadline and (in kTotal mode) one shared
  /// hierarchical budget. A failing cell is captured in SuiteCell::error and
  /// never aborts the grid; a non-OK return is reserved for invalid
  /// configuration (empty/null functions, unknown algorithm names).
  /// Functions are borrowed, not owned.
  StatusOr<SuiteResult> Run(
      const std::vector<const ScoringFunction*>& functions,
      const SuiteOptions& options = SuiteOptions()) const;

 private:
  const Table* table_;
};

/// Renders the "Average EMD" (unfairness) table of a suite result. Failed
/// cells render as ERR.
std::string FormatSuiteUnfairness(const SuiteResult& result);

/// Renders the "time (in secs)" table of a suite result. Failed cells
/// render as ERR.
std::string FormatSuiteRuntime(const SuiteResult& result);

/// Renders the grid as RFC-4180 CSV rows:
/// algorithm,function,unfairness,seconds,num_partitions,attributes,
/// truncated,exhaustion_reason,nodes_visited,nodes_per_sec,error. Every
/// field is CsvEscape'd.
std::string FormatSuiteCsv(const SuiteResult& result);

/// Renders the suite-level summary (wall time, serial-equivalent time,
/// total nodes, truncated/failed counts) as text lines.
std::string FormatSuiteSummary(const SuiteResult& result);

/// The summary as a one-row CSV block (header + row), for appending to the
/// FormatSuiteCsv output.
std::string FormatSuiteSummaryCsv(const SuiteResult& result);

/// The full grid plus summary as a JSON object.
std::string FormatSuiteJson(const SuiteResult& result);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_SUITE_H_

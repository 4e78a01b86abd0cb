#ifndef FAIRRANK_FAIRNESS_OPTION_FLAGS_H_
#define FAIRRANK_FAIRNESS_OPTION_FLAGS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/flags.h"
#include "common/status.h"
#include "fairness/auditor.h"
#include "marketplace/scoring.h"

namespace fairrank {

/// Flag-shaped option parsing shared by the fairaudit CLI and the fairauditd
/// HTTP server (which converts query parameters into a FlagParser via
/// FlagParser::FromPairs). Keeping one parser means one validation story:
/// a limit rejected on the command line is rejected identically over HTTP.

/// Parses a scoring-function spec:
///   alpha:<a>              the paper's linear family
///   f6..f9[:<seed>]        the biased-by-design functions
///   weights:A=0.7,B=0.3    arbitrary linear function over attributes
StatusOr<std::unique_ptr<ScoringFunction>> MakeFunctionFromSpec(
    const std::string& spec);

/// Parses and validates `--timeout-ms`, `--max-nodes`, `--max-memory-mb`
/// into ExecutionLimits. Negative values are rejected here, before any
/// int64 -> uint64 cast can wrap them into near-infinite budgets. The
/// deadline/cancel/parent fields are left inert for the caller to compose.
StatusOr<ExecutionLimits> ParseExecutionLimits(const FlagParser& flags);

/// Parses the audit-shaping flags (algorithm, bins, divergence, seed,
/// beam-width, threads, attributes) plus ParseExecutionLimits
/// into AuditOptions.
StatusOr<AuditOptions> AuditOptionsFromFlags(const FlagParser& flags);

/// Exact set of flag names AuditOptionsFromFlags consumes. Callers append
/// their own surface-specific flags and pass the union to
/// ValidateKnownFlags so misspellings fail instead of silently defaulting.
const std::vector<std::string>& AuditOptionFlagNames();

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_OPTION_FLAGS_H_

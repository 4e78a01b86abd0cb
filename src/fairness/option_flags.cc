#include "fairness/option_flags.h"

#include <utility>

#include "common/str_util.h"
#include "marketplace/biased_scoring.h"

namespace fairrank {

StatusOr<std::unique_ptr<ScoringFunction>> MakeFunctionFromSpec(
    const std::string& spec) {
  std::vector<std::string> parts = Split(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "alpha") {
    double alpha = 0.5;
    if (parts.size() > 1 && !ParseDouble(parts[1], &alpha)) {
      return Status::InvalidArgument("bad alpha in spec '" + spec + "'");
    }
    return MakeAlphaFunction("alpha=" + FormatDouble(alpha, 2), alpha);
  }
  if (kind == "f6" || kind == "f7" || kind == "f8" || kind == "f9") {
    int64_t seed = 42;
    if (parts.size() > 1 && !ParseInt64(parts[1], &seed)) {
      return Status::InvalidArgument("bad seed in spec '" + spec + "'");
    }
    uint64_t s = static_cast<uint64_t>(seed);
    if (kind == "f6") return MakeF6(s);
    if (kind == "f7") return MakeF7(s);
    if (kind == "f8") return MakeF8(s);
    return MakeF9(s);
  }
  if (kind == "weights" && parts.size() > 1) {
    std::vector<std::pair<std::string, double>> weights;
    for (const std::string& term : Split(parts[1], ',')) {
      std::vector<std::string> kv = Split(term, '=');
      double w = 0.0;
      if (kv.size() != 2 || !ParseDouble(kv[1], &w)) {
        return Status::InvalidArgument("bad weight term '" + term + "'");
      }
      weights.emplace_back(std::string(Trim(kv[0])), w);
    }
    return std::unique_ptr<ScoringFunction>(
        std::make_unique<LinearScoringFunction>(spec, std::move(weights)));
  }
  return Status::InvalidArgument(
      "unknown function spec '" + spec +
      "' (want alpha:<a>, f6..f9[:<seed>], or weights:A=0.7,B=0.3)");
}

StatusOr<ExecutionLimits> ParseExecutionLimits(const FlagParser& flags) {
  ExecutionLimits limits;
  FAIRRANK_ASSIGN_OR_RETURN(int64_t timeout_ms, flags.GetInt("timeout-ms", 0));
  if (timeout_ms < 0) {
    return Status::InvalidArgument("--timeout-ms must be >= 0");
  }
  limits.timeout_ms = timeout_ms;
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_nodes, flags.GetInt("max-nodes", 0));
  if (max_nodes < 0) {
    return Status::InvalidArgument("--max-nodes must be >= 0");
  }
  limits.max_nodes = static_cast<uint64_t>(max_nodes);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_memory_mb,
                            flags.GetInt("max-memory-mb", 0));
  if (max_memory_mb < 0) {
    return Status::InvalidArgument("--max-memory-mb must be >= 0");
  }
  limits.max_memory_mb = static_cast<uint64_t>(max_memory_mb);
  return limits;
}

StatusOr<AuditOptions> AuditOptionsFromFlags(const FlagParser& flags) {
  AuditOptions options;
  options.algorithm = flags.GetString("algorithm", "balanced");
  FAIRRANK_ASSIGN_OR_RETURN(int64_t bins, flags.GetInt("bins", 10));
  options.evaluator.num_bins = static_cast<int>(bins);
  options.evaluator.divergence = flags.GetString("divergence", "emd");
  FAIRRANK_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 0));
  options.seed = static_cast<uint64_t>(seed);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t width, flags.GetInt("beam-width", 3));
  options.beam_width = static_cast<int>(width);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 1));
  options.evaluator.num_threads = static_cast<int>(threads);
  std::string attrs = flags.GetString("attributes", "");
  if (!attrs.empty()) {
    for (const std::string& name : Split(attrs, ',')) {
      options.protected_attributes.emplace_back(Trim(name));
    }
  }
  FAIRRANK_ASSIGN_OR_RETURN(options.limits, ParseExecutionLimits(flags));
  return options;
}

const std::vector<std::string>& AuditOptionFlagNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "algorithm",  "bins",    "divergence", "seed",
      "beam-width", "threads", "attributes", "timeout-ms",
      "max-nodes",  "max-memory-mb",
  };
  return *names;
}

}  // namespace fairrank

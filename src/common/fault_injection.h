#ifndef FAIRRANK_COMMON_FAULT_INJECTION_H_
#define FAIRRANK_COMMON_FAULT_INJECTION_H_

#include <cstdint>

#include "common/deadline.h"

namespace fairrank {
namespace fault {

/// Deterministic process-global fault injection for robustness tests and
/// chaos runs. Disarmed by default; the hooks cost one relaxed atomic load
/// on the hot path when off. Arm programmatically (tests) or via
/// environment variables read once at first hook call (CLI chaos runs):
///
///   FAIRRANK_FAULT_ALLOC_N=<n>         fail the nth allocation checkpoint
///   FAIRRANK_FAULT_PARALLEL_CHUNK=<k>  throw in parallel chunk k (0-based)
///   FAIRRANK_FAULT_STALL_CHUNK=<k>     stall parallel chunk k ...
///   FAIRRANK_FAULT_STALL_MS=<ms>       ... for this long (default 50)
///   FAIRRANK_FAULT_DIVERGENCE_N=<n>    fail the nth divergence evaluation
///
/// The hooks are wired into ExecutionContext::CheckMemory (allocation
/// checkpoints) and ParallelFor / ParallelForCancellable (chunk faults), so
/// armed faults exercise exactly the degradation paths production failures
/// would: budget trips, captured worker exceptions, and deadline overruns.
struct FaultPlan {
  /// Fail the nth (1-based) allocation checkpoint; 0 disables.
  int64_t fail_alloc_checkpoint = 0;
  /// Throw std::runtime_error at the start of parallel chunk k (0-based,
  /// chunk 0 runs on the calling thread); -1 disables.
  int64_t throw_in_chunk = -1;
  /// Fail the nth (1-based) divergence evaluation in the unfairness
  /// evaluator's hot path; 0 disables. Exercises the error path of the
  /// pairwise loops (including sibling-chunk early abort).
  int64_t fail_divergence_eval = 0;
  /// Stall parallel chunk k before its body runs; -1 disables.
  int64_t stall_chunk = -1;
  /// Stall duration. The stall sleeps in 1 ms slices and aborts early once
  /// cancellation is requested, so a stalled worker cannot outlive a
  /// cancelled audit by more than a slice.
  int64_t stall_ms = 50;
};

/// Arms `plan` and resets the checkpoint counters. Overwrites any plan
/// loaded from the environment.
void Arm(const FaultPlan& plan);

/// Disarms all faults (counters keep counting; they are cheap and useful
/// for observability).
void Disarm();

/// True when any fault is armed (programmatically or via environment).
bool armed();

/// Total allocation checkpoints hit since the last Arm().
uint64_t alloc_checkpoints_hit();

/// Total divergence evaluations hit since the last Arm(). Counted while
/// armed, even when no divergence fault is configured — tests use it to
/// measure evaluator work.
uint64_t divergence_evals_hit();

/// Hook: called by ExecutionContext::CheckMemory at every allocation
/// checkpoint. Returns true when this checkpoint must fail.
bool OnAllocCheckpoint();

/// Hook: called by UnfairnessEvaluator before every actual divergence
/// computation. Returns true when this evaluation must fail.
bool OnDivergenceEval();

/// Hook: called by the parallel runtime at the start of every chunk. May
/// throw (throw_in_chunk) or sleep cancellation-aware (stall_chunk).
void OnParallelChunk(size_t chunk_index, const CancellationToken& cancel);

/// RAII guard for tests: arms on construction, disarms on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) { Arm(plan); }
  ~ScopedFaultPlan() { Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace fault
}  // namespace fairrank

#endif  // FAIRRANK_COMMON_FAULT_INJECTION_H_

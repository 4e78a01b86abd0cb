#include "common/fault_injection.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/parallel.h"
#include "fairness/evaluator.h"
#include "fairness/registry.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

TEST(FaultInjectionTest, DisarmedByDefault) {
  // No FAIRRANK_FAULT_* variables are set in the test environment, so the
  // hooks must be inert.
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::OnAllocCheckpoint());
  ExecutionContext context;
  EXPECT_EQ(context.CheckMemory(1024), ExhaustionReason::kNone);
}

TEST(FaultInjectionTest, FailsExactlyTheNthAllocCheckpoint) {
  fault::ScopedFaultPlan scoped([] {
    fault::FaultPlan plan;
    plan.fail_alloc_checkpoint = 2;
    return plan;
  }());
  ExecutionContext context;
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kNone);
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kMemoryBudget);
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kNone);
  EXPECT_EQ(fault::alloc_checkpoints_hit(), 3u);
}

TEST(FaultInjectionTest, FailedCheckpointLatchesTheBudget) {
  fault::ScopedFaultPlan scoped([] {
    fault::FaultPlan plan;
    plan.fail_alloc_checkpoint = 1;
    return plan;
  }());
  ResourceBudget budget;  // Unlimited — only the fault can trip it.
  ExecutionContext context(Deadline::Infinite(), CancellationToken(), &budget);
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kMemoryBudget);
  // The trip latches: later checkpoints fail through the budget even though
  // the armed fault only targeted the first one.
  EXPECT_TRUE(budget.memory_exhausted());
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kMemoryBudget);
}

TEST(FaultInjectionTest, DisarmRestoresNormalOperation) {
  {
    fault::FaultPlan plan;
    plan.fail_alloc_checkpoint = 1;
    fault::Arm(plan);
  }
  fault::Disarm();
  EXPECT_FALSE(fault::armed());
  ExecutionContext context;
  EXPECT_EQ(context.CheckMemory(1), ExhaustionReason::kNone);
}

TEST(FaultInjectionTest, WorkerExceptionRethrownOnCallingThread) {
  fault::FaultPlan plan;
  plan.throw_in_chunk = 1;  // A spawned worker, not the calling thread.
  fault::ScopedFaultPlan scoped(plan);
  EXPECT_THROW(
      ParallelFor(10'000, 4, [](size_t, size_t) {}),
      std::runtime_error);
}

TEST(FaultInjectionTest, CallingThreadExceptionAlsoPropagates) {
  fault::FaultPlan plan;
  plan.throw_in_chunk = 0;  // Chunk 0 runs inline on the calling thread.
  fault::ScopedFaultPlan scoped(plan);
  EXPECT_THROW(ParallelFor(100, 1, [](size_t, size_t) {}),
               std::runtime_error);
}

TEST(FaultInjectionTest, SurvivingChunksStillJoinAfterAThrow) {
  fault::FaultPlan plan;
  plan.throw_in_chunk = 0;
  fault::ScopedFaultPlan scoped(plan);
  const size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  try {
    ParallelFor(n, 4, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    FAIL() << "expected the injected exception";
  } catch (const std::runtime_error&) {
  }
  // Every index ran at most once: the throw must not double-run any chunk.
  for (size_t i = 0; i < n; ++i) EXPECT_LE(hits[i].load(), 1) << i;
}

TEST(FaultInjectionTest, StalledChunkAbortsOnCancellation) {
  fault::FaultPlan plan;
  plan.stall_chunk = 0;
  plan.stall_ms = 60'000;  // Would dwarf the test timeout if not aborted.
  fault::ScopedFaultPlan scoped(plan);
  CancellationSource source;
  source.RequestCancellation();
  auto start = std::chrono::steady_clock::now();
  bool complete = ParallelForCancellable(10'000, 2, source.token(),
                                         Deadline::Infinite(),
                                         [](size_t, size_t) {});
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(complete);
  EXPECT_LT(elapsed, 10.0);  // Stall slices observe the cancellation fast.
}

TEST(FaultInjectionTest, EvaluatorConvertsWorkerExceptionToStatus) {
  GeneratorOptions gen;
  gen.num_workers = 300;
  gen.seed = 7;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  auto algo = MakeAlgorithmByName("all-attributes").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();

  fault::FaultPlan plan;
  plan.throw_in_chunk = 0;
  fault::ScopedFaultPlan scoped(plan);
  StatusOr<double> avg = eval.AveragePairwiseUnfairness(p);
  ASSERT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kInternal);
  EXPECT_NE(avg.status().message().find("fault injection"), std::string::npos);
}

TEST(FaultInjectionTest, DivergenceFaultAbortsSiblingChunksEarly) {
  GeneratorOptions gen;
  gen.num_workers = 500;
  gen.seed = 11;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();
  UnfairnessEvaluator setup_eval =
      UnfairnessEvaluator::Make(&workers, scores, EvaluatorOptions()).value();
  auto algo = MakeAlgorithmByName("all-attributes").value();
  Partitioning p =
      algo->Run(setup_eval, workers.schema().ProtectedIndices()).value();
  const size_t num_pairs = p.size() * (p.size() - 1) / 2;
  ASSERT_GE(num_pairs, 100u);

  // A parallel evaluator, so the abort has sibling chunks to stop.
  EvaluatorOptions options;
  options.num_threads = 4;
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, scores, options).value();
  fault::FaultPlan plan;
  plan.fail_divergence_eval = 1;
  fault::ScopedFaultPlan scoped(plan);
  StatusOr<double> avg = eval.AveragePairwiseUnfairness(p);
  ASSERT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kInternal);
  EXPECT_NE(avg.status().message().find("fault injection"), std::string::npos);
  // Sibling chunks observe the abort flag: after the first failure the loop
  // must stop instead of burning through the remaining pairs.
  EXPECT_LT(fault::divergence_evals_hit(), num_pairs / 4);
}

TEST(FaultInjectionTest, SimulatedAllocFailureDegradesMergeSearch) {
  // The merge algorithm's distance matrix is guarded by an allocation
  // checkpoint; failing it must yield a valid truncated result, not an
  // error or a crash.
  Table table = MakeToyTable().value();
  size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).value();

  fault::FaultPlan plan;
  plan.fail_alloc_checkpoint = 1;
  fault::ScopedFaultPlan scoped(plan);
  auto algo = MakeAlgorithmByName("merge").value();
  SearchResult result = algo->Run(eval, table.schema().ProtectedIndices(),
                                  ExecutionContext::Unbounded())
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kMemoryBudget);
  EXPECT_TRUE(IsValidPartitioning(result.partitioning, table.num_rows()));
  EXPECT_FALSE(result.partitioning.empty());
}

}  // namespace
}  // namespace fairrank

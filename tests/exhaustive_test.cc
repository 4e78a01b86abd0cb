#include "fairness/exhaustive.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "fairness/beam.h"
#include "fairness/registry.h"
#include "fairness/splitter.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

/// The evaluator's always-on pipeline counters: histograms built and
/// pairwise divergences computed.
struct PipelineCounts {
  uint64_t builds = 0;
  uint64_t evals = 0;
};

PipelineCounts ReadPipelineCounts() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricCounter* builds = registry.GetCounter(
      "fairrank_pipeline_histogram_builds_total",
      "Per-partition score histograms built");
  MetricCounter* evals = registry.GetCounter(
      "fairrank_pipeline_emd_computations_total",
      "Pairwise divergences computed");
  return {builds->value(), evals->value()};
}

std::vector<double> ToyScores(const Table& table) {
  size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  return scores;
}

TEST(ExhaustiveTest, FindsFigure1Optimum) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  auto algo = MakeExhaustiveAlgorithm();
  Partitioning p =
      algo->Run(eval, table.schema().ProtectedIndices()).value();
  // The optimum is {Male-English, Male-Indian, Male-Other, Female}.
  ASSERT_EQ(p.size(), 4u);
  std::set<std::string> labels;
  for (const Partition& part : p) {
    labels.insert(PartitionLabel(table.schema(), part));
  }
  EXPECT_TRUE(labels.count("Gender=Female"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=English"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Indian"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Other"));
}

TEST(ExhaustiveTest, OptimumDominatesHeuristics) {
  // On a small instance exhaustive must be >= every heuristic.
  GeneratorOptions options;
  options.num_workers = 60;
  options.seed = 31;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  attrs.resize(2);  // Keep brute force small.

  ExhaustiveOptions ex;
  ex.max_partitionings = 500000;
  auto exhaustive = MakeExhaustiveAlgorithm(ex);
  double optimum =
      eval.AveragePairwiseUnfairness(exhaustive->Run(eval, attrs).value())
          .value();
  for (const std::string& name : PaperAlgorithmNames()) {
    auto algo = MakeAlgorithmByName(name).value();
    double heuristic =
        eval.AveragePairwiseUnfairness(algo->Run(eval, attrs).value())
            .value();
    EXPECT_GE(optimum + 1e-9, heuristic) << name;
  }
}

TEST(ExhaustiveTest, BudgetExhaustionTruncatesToBestSoFar) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  ExhaustiveOptions ex;
  ex.max_partitionings = 50;  // Far too small for 6 attributes.
  ex.fallback_to_beam = false;
  auto algo = MakeExhaustiveAlgorithm(ex);
  SearchResult result = algo->Run(eval, workers.schema().ProtectedIndices(),
                                  ExecutionContext::Unbounded())
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kNodeBudget);
  EXPECT_TRUE(IsValidPartitioning(result.partitioning, workers.num_rows()));
  EXPECT_EQ(result.nodes_visited, ex.max_partitionings + 1);
}

TEST(ExhaustiveTest, NodeBudgetFallsBackToBeam) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  ExhaustiveOptions ex;
  ex.max_partitionings = 50;
  ex.fallback_to_beam = false;
  double without_fallback =
      eval.AveragePairwiseUnfairness(
              MakeExhaustiveAlgorithm(ex)
                  ->Run(eval, workers.schema().ProtectedIndices(),
                        ExecutionContext::Unbounded())
                  .value()
                  .partitioning)
          .value();
  ex.fallback_to_beam = true;
  SearchResult with_fallback =
      MakeExhaustiveAlgorithm(ex)
          ->Run(eval, workers.schema().ProtectedIndices(),
                ExecutionContext::Unbounded())
          .value();
  EXPECT_TRUE(with_fallback.truncated);
  EXPECT_EQ(with_fallback.reason, ExhaustionReason::kNodeBudget);
  EXPECT_TRUE(
      IsValidPartitioning(with_fallback.partitioning, workers.num_rows()));
  // The fallback keeps the better of {enumeration best-so-far, beam}.
  double with_fallback_avg =
      eval.AveragePairwiseUnfairness(with_fallback.partitioning).value();
  EXPECT_GE(with_fallback_avg + 1e-12, without_fallback);
}

TEST(ExhaustiveTest, TimeBudgetTruncatesAsDeadline) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  ExhaustiveOptions ex;
  ex.max_seconds = 1e-9;  // Expires after the first evaluated partitioning.
  auto algo = MakeExhaustiveAlgorithm(ex);
  SearchResult result = algo->Run(eval, workers.schema().ProtectedIndices(),
                                  ExecutionContext::Unbounded())
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kDeadline);
  EXPECT_TRUE(IsValidPartitioning(result.partitioning, workers.num_rows()));
}

TEST(ExhaustiveTest, SingleAttributeSpace) {
  // With one attribute the space is {root} and {split}; optimum is the
  // split whenever it has >= 2 groups.
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  size_t gender = table.schema().FindIndex("Gender").value();
  auto algo = MakeExhaustiveAlgorithm();
  Partitioning p = algo->Run(eval, {gender}).value();
  EXPECT_EQ(p.size(), 2u);
}

TEST(CountPartitioningsTest, ToyExampleCount) {
  // Toy: Gender (2 values) and Language (3 values), all groups non-empty.
  // Trees: leaf(1) + gender-first (2 branches, each leaf-or-language:
  // 2*2=4) + language-first (3 branches, each leaf-or-gender: 2^3=8) = 13.
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  EXPECT_EQ(CountHierarchicalPartitionings(
                eval, table.schema().ProtectedIndices(), 1000),
            13u);
}

TEST(CountPartitioningsTest, CapRespected) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  EXPECT_EQ(CountHierarchicalPartitionings(
                eval, table.schema().ProtectedIndices(), 5),
            5u);
}

TEST(CountPartitioningsTest, GrowsExplosivelyWithAttributes) {
  // The paper: brute force "failed to terminate after two days" with six
  // attributes. Verify the count explodes as attributes are added.
  GeneratorOptions options;
  options.num_workers = 120;
  options.seed = 3;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  std::vector<size_t> all = workers.schema().ProtectedIndices();
  uint64_t previous = 0;
  const uint64_t kCap = 2'000'000;
  const PipelineCounts before = ReadPipelineCounts();
  for (size_t k = 1; k <= 4; ++k) {
    std::vector<size_t> attrs(all.begin(), all.begin() + k);
    uint64_t count = CountHierarchicalPartitionings(eval, attrs, kCap);
    EXPECT_GT(count, previous);
    previous = count;
  }
  EXPECT_EQ(previous, kCap);  // Four attributes already exceed 2M trees.
  // Counting walks the split tree only: no histogram, no divergence.
  const PipelineCounts after = ReadPipelineCounts();
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.evals, before.evals);
}

// ---------------------------------------------------------------------------
// Oracle: the search's private memo must reproduce, bit for bit, a plain
// enumeration that scores every complete partitioning with the evaluator's
// pair loop — same traversal, same strict-improvement rule.

/// unfairness(P, f) summed the way the memo sums it: the mean of
/// PairwiseDistances in slot order. (For "emd", AveragePairwiseUnfairness is
/// a closed form whose last bits may differ.)
double PairLoopMean(const UnfairnessEvaluator& eval,
                    const Partitioning& partitioning) {
  if (partitioning.size() < 2) return 0.0;
  std::vector<double> distances = eval.PairwiseDistances(partitioning).value();
  double sum = 0.0;
  for (double d : distances) sum += d;
  return sum / static_cast<double>(distances.size());
}

struct PlainSearch {
  Partitioning best;
  double best_avg = -1.0;
  uint64_t evaluated = 0;
  bool stopped = false;
};

/// Enumerates hierarchical partitionings in ExhaustiveAlgorithm's order,
/// stopping once more than `max_evaluations` are reached.
void PlainEnumerate(const UnfairnessEvaluator& eval,
                    std::vector<std::pair<Partition, std::vector<size_t>>>*
                        pending,
                    Partitioning* leaves, uint64_t max_evaluations,
                    PlainSearch* out) {
  if (out->stopped) return;
  if (pending->empty()) {
    if (++out->evaluated > max_evaluations) {
      out->stopped = true;
      return;
    }
    double avg = PairLoopMean(eval, *leaves);
    if (avg > out->best_avg) {
      out->best_avg = avg;
      out->best = *leaves;
    }
    return;
  }
  auto node = std::move(pending->back());
  pending->pop_back();
  leaves->push_back(node.first);
  PlainEnumerate(eval, pending, leaves, max_evaluations, out);
  leaves->pop_back();
  for (size_t pos = 0; pos < node.second.size() && !out->stopped; ++pos) {
    std::vector<Partition> children =
        SplitPartition(eval.table(), node.first, node.second[pos]);
    if (children.size() < 2) continue;
    std::vector<size_t> remaining = node.second;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
    const size_t old_size = pending->size();
    for (Partition& child : children) {
      pending->emplace_back(std::move(child), remaining);
    }
    PlainEnumerate(eval, pending, leaves, max_evaluations, out);
    pending->resize(old_size);
  }
  pending->push_back(std::move(node));
}

PlainSearch RunPlain(const UnfairnessEvaluator& eval,
                     const std::vector<size_t>& attrs,
                     uint64_t max_evaluations) {
  std::vector<std::pair<Partition, std::vector<size_t>>> pending;
  pending.emplace_back(MakeRootPartition(eval.table().num_rows()), attrs);
  Partitioning leaves;
  PlainSearch out;
  PlainEnumerate(eval, &pending, &leaves, max_evaluations, &out);
  if (out.best.empty()) out.best = {MakeRootPartition(eval.table().num_rows())};
  return out;
}

void ExpectSamePartitioning(const Partitioning& a, const Partitioning& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rows, b[i].rows) << i;
    EXPECT_EQ(a[i].path, b[i].path) << i;
  }
}

Table OracleWorkers(size_t num_workers = 120) {
  GeneratorOptions options;
  options.num_workers = num_workers;
  options.seed = 5;
  return GenerateWorkers(options).value();
}

UnfairnessEvaluator OracleEvaluator(const Table& workers,
                                    const std::string& divergence) {
  EvaluatorOptions options;
  options.divergence = divergence;
  return UnfairnessEvaluator::Make(
             &workers, MakeAlphaFunction("f1", 0.5)->ScoreAll(workers).value(),
             options)
      .value();
}

std::vector<size_t> FirstAttributes(const Table& workers, size_t n) {
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  attrs.resize(n);
  return attrs;
}

TEST(ExhaustiveOracleTest, MemoMatchesPlainEnumerationOnToyTable) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  std::vector<size_t> attrs = table.schema().ProtectedIndices();
  SearchResult result =
      MakeExhaustiveAlgorithm()
          ->Run(eval, attrs, ExecutionContext::Unbounded())
          .value();
  PlainSearch plain = RunPlain(eval, attrs, UINT64_MAX);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.nodes_visited, plain.evaluated);
  ExpectSamePartitioning(result.partitioning, plain.best);
  EXPECT_EQ(PairLoopMean(eval, result.partitioning), plain.best_avg);
}

TEST(ExhaustiveOracleTest, MemoMatchesPlainEnumerationForEachDivergence) {
  // 40 workers over three attributes: 12,857 partitionings.
  Table workers = OracleWorkers(40);
  const std::vector<size_t> attrs = FirstAttributes(workers, 3);
  for (const char* name : {"emd", "kl", "js"}) {
    UnfairnessEvaluator eval = OracleEvaluator(workers, name);
    SearchResult result =
        MakeExhaustiveAlgorithm()
            ->Run(eval, attrs, ExecutionContext::Unbounded())
            .value();
    PlainSearch plain = RunPlain(eval, attrs, UINT64_MAX);
    ASSERT_FALSE(result.truncated) << name;
    EXPECT_EQ(result.nodes_visited, plain.evaluated) << name;
    ExpectSamePartitioning(result.partitioning, plain.best);
    EXPECT_EQ(PairLoopMean(eval, result.partitioning), plain.best_avg)
        << name;
  }
}

TEST(ExhaustiveOracleTest, MemoMatchesPlainEnumerationUnderNodeBudgets) {
  Table workers = OracleWorkers();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 4);
  for (uint64_t budget : {1ull, 7ull, 300ull, 2500ull}) {
    PlainSearch plain = RunPlain(eval, attrs, budget);
    ASSERT_TRUE(plain.stopped) << budget;

    // The built-in budget, without the beam fallback.
    ExhaustiveOptions ex;
    ex.max_partitionings = budget;
    ex.fallback_to_beam = false;
    SearchResult result =
        MakeExhaustiveAlgorithm(ex)
            ->Run(eval, attrs, ExecutionContext::Unbounded())
            .value();
    EXPECT_EQ(result.reason, ExhaustionReason::kNodeBudget) << budget;
    EXPECT_EQ(result.nodes_visited, budget + 1) << budget;
    ExpectSamePartitioning(result.partitioning, plain.best);
    EXPECT_EQ(PairLoopMean(eval, result.partitioning), plain.best_avg)
        << budget;

    // The context's --max-nodes budget trips at the same partitioning.
    ResourceBudget nodes(budget, 0);
    ExecutionContext context(Deadline(), CancellationToken(), &nodes);
    ex.max_partitionings = UINT64_MAX;
    SearchResult by_context =
        MakeExhaustiveAlgorithm(ex)->Run(eval, attrs, context).value();
    EXPECT_EQ(by_context.reason, ExhaustionReason::kNodeBudget) << budget;
    ExpectSamePartitioning(by_context.partitioning, plain.best);

    // With the fallback, the better of {best-so-far, beam} wins.
    ex.max_partitionings = budget;
    ex.fallback_to_beam = true;
    SearchResult with_fallback =
        MakeExhaustiveAlgorithm(ex)
            ->Run(eval, attrs, ExecutionContext::Unbounded())
            .value();
    Partitioning beam = MakeBeamAlgorithm(ex.fallback_beam_width)
                            ->Run(eval, attrs)
                            .value();
    const double beam_avg = eval.AveragePairwiseUnfairness(beam).value();
    ExpectSamePartitioning(with_fallback.partitioning,
                           beam_avg > plain.best_avg ? beam : plain.best);
  }
}

TEST(ExhaustiveOracleTest, MemoMatchesPlainEnumerationUnderDeadlines) {
  Table workers = OracleWorkers();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 4);
  // Both deadlines fire at the first checkpoint, before any evaluation:
  // the plain enumeration stopped at zero evaluations is the oracle.
  PlainSearch plain = RunPlain(eval, attrs, 0);
  ExhaustiveOptions ex;
  ex.max_seconds = 1e-9;
  SearchResult by_option =
      MakeExhaustiveAlgorithm(ex)
          ->Run(eval, attrs, ExecutionContext::Unbounded())
          .value();
  EXPECT_EQ(by_option.reason, ExhaustionReason::kDeadline);
  ExpectSamePartitioning(by_option.partitioning, plain.best);

  ExecutionContext expired(Deadline::AfterMillis(0), CancellationToken(),
                           nullptr);
  SearchResult by_context =
      MakeExhaustiveAlgorithm()->Run(eval, attrs, expired).value();
  EXPECT_EQ(by_context.reason, ExhaustionReason::kDeadline);
  ExpectSamePartitioning(by_context.partitioning, plain.best);
}

/// unfairness(P, f) summed in column order, Σ_j Σ_{i<j} d(i, j): the order
/// of the search's incremental sum.
double ColumnOrderMean(const UnfairnessEvaluator& eval,
                       const Partitioning& partitioning) {
  const size_t k = partitioning.size();
  if (k < 2) return 0.0;
  std::vector<double> distances = eval.PairwiseDistances(partitioning).value();
  double sum = 0.0;
  for (size_t j = 1; j < k; ++j) {
    for (size_t i = 0; i < j; ++i) {
      sum += distances[i * k - i * (i + 1) / 2 + (j - i - 1)];
    }
  }
  return sum / static_cast<double>(distances.size());
}

TEST(ExhaustiveOracleTest, NearTieIsDecidedOnTheCanonicalSum) {
  // 20 workers over Country, YearOfBirth and Language: several complete
  // partitionings average 0.21 up to rounding. The oracle's winner sums to
  // 0.21000000000000005 in row order but 0.20999999999999999 in column
  // order, the search's incremental order; a competitor reads
  // 0.21000000000000002 and 0.21000000000000008. Comparing incremental
  // means alone, or screening them without the rounding bound, keeps a
  // different partitioning.
  GeneratorOptions options;
  options.num_workers = 20;
  options.seed = 28;
  Table workers = GenerateWorkers(options).value();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> all = workers.schema().ProtectedIndices();
  ASSERT_GE(all.size(), 6u);
  const std::vector<size_t> attrs(all.begin() + 1, all.begin() + 4);
  SearchResult result =
      MakeExhaustiveAlgorithm()
          ->Run(eval, attrs, ExecutionContext::Unbounded())
          .value();
  PlainSearch plain = RunPlain(eval, attrs, UINT64_MAX);
  // The data still holds a last-bit split between the two sums.
  ASSERT_NE(ColumnOrderMean(eval, plain.best), plain.best_avg);
  EXPECT_EQ(result.nodes_visited, plain.evaluated);
  ExpectSamePartitioning(result.partitioning, plain.best);
  EXPECT_EQ(PairLoopMean(eval, result.partitioning), plain.best_avg);
}

/// Every constraint set (sorted split constraints, the key of a row set)
/// and every ordered leaf pair (i < j) that the complete partitionings of
/// ExhaustiveAlgorithm's space touch; sets are numbered in `ids`.
struct Touched {
  std::map<std::vector<std::pair<size_t, int>>, size_t> ids;
  std::set<size_t> sets;
  std::set<std::pair<size_t, size_t>> pairs;

  size_t IdOf(const Partition& partition) {
    std::vector<std::pair<size_t, int>> key;
    for (const SplitStep& step : partition.path) {
      key.emplace_back(step.attr_index, step.group_index);
    }
    std::sort(key.begin(), key.end());
    return ids.emplace(std::move(key), ids.size()).first->second;
  }
};

void CollectTouched(const Table& table,
                    std::vector<std::pair<Partition, std::vector<size_t>>>*
                        pending,
                    std::vector<size_t>* leaves, Touched* out) {
  if (pending->empty()) {
    for (size_t j = 0; j < leaves->size(); ++j) {
      out->sets.insert((*leaves)[j]);
      for (size_t i = 0; i < j; ++i) {
        out->pairs.emplace((*leaves)[i], (*leaves)[j]);
      }
    }
    return;
  }
  auto node = std::move(pending->back());
  pending->pop_back();
  leaves->push_back(out->IdOf(node.first));
  CollectTouched(table, pending, leaves, out);
  leaves->pop_back();
  for (size_t pos = 0; pos < node.second.size(); ++pos) {
    std::vector<Partition> children =
        SplitPartition(table, node.first, node.second[pos]);
    if (children.size() < 2) continue;
    std::vector<size_t> remaining = node.second;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
    const size_t old_size = pending->size();
    for (Partition& child : children) {
      pending->emplace_back(std::move(child), remaining);
    }
    CollectTouched(table, pending, leaves, out);
    pending->resize(old_size);
  }
  pending->push_back(std::move(node));
}

TEST(ExhaustiveOracleTest, BuildsAndEvaluatesEachDistinctSetAndPairOnce) {
  // A full run builds one histogram per distinct constraint set and
  // computes one divergence per distinct ordered leaf pair, however many
  // partitionings share them.
  Table workers = OracleWorkers(40);
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 3);
  std::vector<std::pair<Partition, std::vector<size_t>>> pending;
  pending.emplace_back(MakeRootPartition(workers.num_rows()), attrs);
  std::vector<size_t> leaves;
  Touched touched;
  CollectTouched(workers, &pending, &leaves, &touched);

  const PipelineCounts before = ReadPipelineCounts();
  SearchResult result =
      MakeExhaustiveAlgorithm()
          ->Run(eval, attrs, ExecutionContext::Unbounded())
          .value();
  const PipelineCounts after = ReadPipelineCounts();
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(after.builds - before.builds, touched.sets.size());
  EXPECT_EQ(after.evals - before.evals, touched.pairs.size());
}

/// Distinct splits below `partition`: one per allowed attribute, plus those
/// of the children when the split has at least two.
uint64_t DistinctSplits(const Table& table, const Partition& partition,
                        const std::vector<size_t>& attrs) {
  uint64_t splits = 0;
  for (size_t pos = 0; pos < attrs.size(); ++pos) {
    ++splits;
    std::vector<Partition> children =
        SplitPartition(table, partition, attrs[pos]);
    if (children.size() < 2) continue;
    std::vector<size_t> remaining = attrs;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pos));
    for (const Partition& child : children) {
      splits += DistinctSplits(table, child, remaining);
    }
  }
  return splits;
}

TEST(ExhaustiveOracleTest, TraceShowsEachDistinctSplitOnceAndNoLeaves) {
  // Each distinct (path, attribute) split runs once, under one "expand"
  // span; complete partitionings record no span.
  Table workers = OracleWorkers(40);
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 3);
  TraceContext trace(/*sampled=*/true, /*max_spans=*/16);
  const ExecutionContext context =
      ExecutionContext::Unbounded().WithTrace(&trace, -1);
  SearchResult result =
      MakeExhaustiveAlgorithm()->Run(eval, attrs, context).value();
  ASSERT_FALSE(result.truncated);
  uint64_t expand = 0;
  for (const TraceContext::NamedTotal& total : trace.Totals()) {
    EXPECT_NE(total.name, "evaluate");
    if (total.name == "expand") expand = total.count;
  }
  EXPECT_EQ(expand, DistinctSplits(workers,
                                   MakeRootPartition(workers.num_rows()),
                                   attrs));
  EXPECT_GT(trace.spans_dropped(), 0u);  // The totals count past the cap.
}

TEST(ExhaustiveOracleTest, DivergenceFaultSurfacesAsErrorThroughTheMemo) {
  Table workers = OracleWorkers();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 3);
  // The first divergence, and one deep into the search after the memo has
  // filled part of its matrix.
  for (int64_t n : {1, 500}) {
    fault::FaultPlan plan;
    plan.fail_divergence_eval = n;
    fault::ScopedFaultPlan scoped(plan);
    StatusOr<SearchResult> result =
        MakeExhaustiveAlgorithm()->Run(eval, attrs,
                                       ExecutionContext::Unbounded());
    ASSERT_FALSE(result.ok()) << n;
    EXPECT_EQ(result.status().code(), StatusCode::kInternal) << n;
    EXPECT_NE(result.status().message().find("fault injection"),
              std::string::npos);
  }
}

TEST(ExhaustiveOracleTest, DivergenceFaultSurfacesAsErrorThroughTheFastLoop) {
  Table workers = OracleWorkers();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  Partitioning cells = {MakeRootPartition(workers.num_rows())};
  for (size_t attr : FirstAttributes(workers, 2)) {
    cells = SplitAll(workers, cells, attr);
  }
  std::vector<Partition> siblings(cells.begin() + 1, cells.end());
  std::vector<Partition> children(cells.begin(), cells.begin() + 2);
  for (int64_t n : {1, 3}) {
    fault::FaultPlan plan;
    plan.fail_divergence_eval = n;
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_EQ(eval.AveragePairwiseUnfairness(cells).status().code(),
              StatusCode::kInternal);
    fault::Arm(plan);
    EXPECT_EQ(eval.AverageWithSiblings(cells[0], siblings).status().code(),
              StatusCode::kInternal);
    fault::Arm(plan);
    EXPECT_EQ(
        eval.AverageChildrenWithSiblings(children, siblings).status().code(),
        StatusCode::kInternal);
  }
  fault::FaultPlan first;
  first.fail_divergence_eval = 1;
  fault::ScopedFaultPlan scoped(first);
  EXPECT_EQ(eval.Distance(cells[0], cells[1]).status().code(),
            StatusCode::kInternal);
  fault::Arm(first);
  EXPECT_EQ(eval.Distance(eval.BuildHistogram(cells[0]),
                          eval.BuildHistogram(cells[1]))
                .status()
                .code(),
            StatusCode::kInternal);
}

TEST(ExhaustiveOracleTest, MemoGrowthIsChargedToTheMemoryBudget) {
  // An allocation checkpoint failing inside the memo truncates the search
  // gracefully with a valid partitioning, like any memory-budget trip.
  Table workers = OracleWorkers();
  UnfairnessEvaluator eval = OracleEvaluator(workers, "emd");
  const std::vector<size_t> attrs = FirstAttributes(workers, 3);
  for (int64_t n : {1, 10}) {
    fault::FaultPlan plan;
    plan.fail_alloc_checkpoint = n;
    fault::ScopedFaultPlan scoped(plan);
    ExhaustiveOptions ex;
    ex.fallback_to_beam = false;
    SearchResult result =
        MakeExhaustiveAlgorithm(ex)
            ->Run(eval, attrs, ExecutionContext::Unbounded())
            .value();
    EXPECT_TRUE(result.truncated) << n;
    EXPECT_EQ(result.reason, ExhaustionReason::kMemoryBudget) << n;
    EXPECT_TRUE(IsValidPartitioning(result.partitioning, workers.num_rows()));
  }
}

}  // namespace
}  // namespace fairrank

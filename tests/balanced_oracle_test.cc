// Equivalence of Algorithm 1 over demographic cells with the row-level loop
// it replaced (tests/balanced_oracle.h). `balanced`, `r-balanced` and the
// cell-store audit (AuditAggregateBalanced) all run SearchBalancedCells;
// each must reproduce the row oracle exactly: the same partitions, rows and
// paths, bit-identical unfairness and the same nodes_visited.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "balanced_oracle.h"
#include "common/budget.h"
#include "common/deadline.h"
#include "fairness/aggregate.h"
#include "fairness/balanced.h"
#include "fairness/option_flags.h"
#include "fairness/registry.h"
#include "marketplace/generator.h"

namespace fairrank {
namespace {

using balanced_oracle::BalancedOverRows;
using balanced_oracle::RowSearch;

/// One audited population: the table, the function's scores and the
/// default evaluator over them.
struct Population {
  std::unique_ptr<Table> table;
  std::vector<double> scores;
  std::unique_ptr<UnfairnessEvaluator> eval;
  std::vector<size_t> attrs;
};

/// `function` is a CLI spec; "f6".."f9" get the population seed, as in
/// `fairaudit audit --function f7:<seed>`.
Population MakePopulation(size_t workers, uint64_t seed,
                          const std::string& function) {
  GeneratorOptions gen;
  gen.num_workers = workers;
  gen.seed = seed;
  Population pop;
  pop.table = std::make_unique<Table>(GenerateWorkers(gen).value());
  std::string spec = function;
  if (spec[0] == 'f') {
    spec += ':';
    spec += std::to_string(seed);
  }
  std::unique_ptr<ScoringFunction> fn = MakeFunctionFromSpec(spec).value();
  pop.scores = fn->ScoreAll(*pop.table).value();
  pop.eval = std::make_unique<UnfairnessEvaluator>(
      UnfairnessEvaluator::Make(pop.table.get(), pop.scores,
                                EvaluatorOptions())
          .value());
  pop.attrs = pop.table->schema().ProtectedIndices();
  return pop;
}

std::string Describe(const Population& pop, const std::string& function) {
  return std::to_string(pop.table->num_rows()) + " workers, " + function;
}

void ExpectSamePartitioning(const Partitioning& actual,
                            const Partitioning& expected,
                            const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].rows, expected[i].rows) << what << " partition " << i;
    EXPECT_EQ(actual[i].path, expected[i].path) << what << " partition " << i;
  }
}

/// Runs the balanced algorithm with `cells_selector` and the row oracle
/// (with an identically seeded `oracle_selector`) and checks they agree.
void ExpectMatchesOracle(const Population& pop,
                         std::unique_ptr<AttributeSelector> cells_selector,
                         std::unique_ptr<AttributeSelector> oracle_selector,
                         const ExecutionContext& cells_context,
                         const ExecutionContext& oracle_context,
                         const std::string& what) {
  RowSearch oracle = BalancedOverRows(*pop.eval, pop.attrs, *oracle_selector,
                                      oracle_context)
                         .value();
  std::unique_ptr<PartitioningAlgorithm> algorithm =
      MakeBalancedAlgorithm("balanced", std::move(cells_selector));
  SearchResult cells =
      algorithm->Run(*pop.eval, pop.attrs, cells_context).value();
  ExpectSamePartitioning(cells.partitioning, oracle.result.partitioning, what);
  EXPECT_EQ(cells.nodes_visited, oracle.result.nodes_visited) << what;
  EXPECT_EQ(cells.truncated, oracle.result.truncated) << what;
  EXPECT_EQ(cells.reason, oracle.result.reason) << what;
  // The same partitions give the same unfairness only if each side's
  // histograms are bit-identical; check the search's own value too.
  EXPECT_EQ(pop.eval->AveragePairwiseUnfairness(cells.partitioning).value(),
            oracle.unfairness)
      << what;
}

/// Balanced and the aggregate audit against the oracle, plus r-balanced
/// under three seeds.
void ExpectAllMatch(const Population& pop, const std::string& what) {
  const ExecutionContext unbounded = ExecutionContext::Unbounded();
  ExpectMatchesOracle(pop, MakeWorstAttributeSelector(),
                      MakeWorstAttributeSelector(), unbounded, unbounded,
                      what + ", balanced");
  for (uint64_t seed : {1, 7, 42}) {
    ExpectMatchesOracle(pop, MakeRandomAttributeSelector(seed),
                        MakeRandomAttributeSelector(seed), unbounded,
                        unbounded,
                        what + ", r-balanced seed " + std::to_string(seed));
  }

  // The cell-store audit: same split order, unfairness, sizes, histograms.
  auto selector = MakeWorstAttributeSelector();
  RowSearch oracle =
      BalancedOverRows(*pop.eval, pop.attrs, *selector, unbounded).value();
  const Partitioning& rows = oracle.result.partitioning;
  CellStore store = BuildCellStoreParallel(*pop.table, pop.scores).value();
  AggregateAuditResult aggregate = AuditAggregateBalanced(store).value();
  EXPECT_EQ(aggregate.unfairness, oracle.unfairness) << what;
  std::vector<size_t> split_order;
  for (const SplitStep& step : rows.front().path) {
    split_order.push_back(step.attr_index);
  }
  std::vector<size_t> aggregate_order;
  for (size_t spec : aggregate.attributes_used) {
    aggregate_order.push_back(pop.attrs[spec]);
  }
  EXPECT_EQ(aggregate_order, split_order) << what;
  ASSERT_EQ(aggregate.partitions.size(), rows.size()) << what;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(aggregate.partitions[i].size, rows[i].rows.size()) << what;
    EXPECT_EQ(aggregate.partitions[i].histogram.counts(),
              pop.eval->BuildHistogram(rows[i]).counts())
        << what << " partition " << i;
  }
}

const char* const kFunctions[] = {"alpha:0.1", "alpha:0.5", "f6",
                                  "f7",        "f8",        "f9"};

TEST(BalancedOracleTest, SweepMatchesRowLoopExactly) {
  struct Size {
    size_t workers;
    uint64_t seeds;
  };
  for (Size size : {Size{12, 25}, Size{20, 25}, Size{40, 20}, Size{100, 8},
                    Size{500, 2}}) {
    for (uint64_t seed = 1; seed <= size.seeds; ++seed) {
      for (const char* function : kFunctions) {
        Population pop = MakePopulation(size.workers, seed, function);
        ExpectAllMatch(pop, Describe(pop, function) + ", seed " +
                                std::to_string(seed));
      }
    }
  }
}

// The six audits on which the cell-store audit's own copy of Algorithm 1
// (strict > ties, a pair-loop average) chose other attributes than the row
// search. All are 12 workers unless noted.
TEST(BalancedOracleTest, PinnedCaseSeed9F7) {
  Population pop = MakePopulation(12, 9, "f7");
  ExpectAllMatch(pop, "seed 9 f7:9");
  // The row search's answer, which the aggregate audit now shares (in
  // split order; `fairaudit audit --json` lists Gender, Country, Language
  // in schema order). The old cell copy picked YearOfBirth,
  // YearsExperience, Country with 11 partitions at 0.421818.
  CellStore store = BuildCellStoreParallel(*pop.table, pop.scores).value();
  AggregateAuditResult aggregate = AuditAggregateBalanced(store).value();
  std::vector<std::string> names;
  for (size_t spec : aggregate.attributes_used) {
    names.push_back(store.specs()[spec].name());
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"Country", "Gender", "Language"}));
  EXPECT_EQ(aggregate.partitions.size(), 8u);
  EXPECT_NEAR(aggregate.unfairness, 0.432143, 5e-7);
}

TEST(BalancedOracleTest, PinnedCaseSeed72Alpha05) {
  ExpectAllMatch(MakePopulation(12, 72, "alpha:0.5"), "seed 72 alpha:0.5");
}

TEST(BalancedOracleTest, PinnedCaseSeed88F7) {
  ExpectAllMatch(MakePopulation(12, 88, "f7"), "seed 88 f7:88");
}

TEST(BalancedOracleTest, PinnedCaseSeed128Alpha01) {
  ExpectAllMatch(MakePopulation(12, 128, "alpha:0.1"), "seed 128 alpha:0.1");
}

TEST(BalancedOracleTest, PinnedCaseSeed140Alpha05) {
  ExpectAllMatch(MakePopulation(12, 140, "alpha:0.5"), "seed 140 alpha:0.5");
}

TEST(BalancedOracleTest, PinnedCase40WorkersSeed26Alpha01) {
  ExpectAllMatch(MakePopulation(40, 26, "alpha:0.1"),
                 "40 workers seed 26 alpha:0.1");
}

TEST(BalancedOracleTest, NodeBudgetTruncatesAtTheSameRound) {
  Population pop = MakePopulation(500, 3, "alpha:0.5");
  for (uint64_t max_nodes : {1, 6, 11, 15}) {
    ResourceBudget cells_budget(max_nodes, 0);
    ResourceBudget oracle_budget(max_nodes, 0);
    ExpectMatchesOracle(
        pop, MakeWorstAttributeSelector(), MakeWorstAttributeSelector(),
        ExecutionContext(Deadline(), CancellationToken(), &cells_budget),
        ExecutionContext(Deadline(), CancellationToken(), &oracle_budget),
        std::to_string(max_nodes) + " max nodes");
  }
}

TEST(BalancedOracleTest, ExpiredDeadlineYieldsTheTruncatedRoot) {
  Population pop = MakePopulation(100, 5, "f6");
  ExecutionContext expired(Deadline::AfterMillis(0), CancellationToken(),
                           nullptr);
  ExpectMatchesOracle(pop, MakeWorstAttributeSelector(),
                      MakeWorstAttributeSelector(), expired, expired,
                      "expired deadline");
  SearchResult result = MakeAlgorithmByName("balanced")
                            .value()
                            ->Run(*pop.eval, pop.attrs, expired)
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kDeadline);
  ASSERT_EQ(result.partitioning.size(), 1u);
  EXPECT_EQ(result.partitioning[0].rows.size(), 100u);
}

TEST(BalancedOracleTest, MemoryBudgetTooSmallForTheCellArraysYieldsTheRoot) {
  // The index charges ~ cells x (bins + 2) x 8 B up front, like an ingest
  // shard; a 1 KiB budget cannot hold the paper schema's 1800 cells.
  Population pop = MakePopulation(100, 5, "f6");
  ResourceBudget budget(0, 1024);
  ExecutionContext strapped(Deadline(), CancellationToken(), &budget);
  SearchResult result = MakeAlgorithmByName("balanced")
                            .value()
                            ->Run(*pop.eval, pop.attrs, strapped)
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kMemoryBudget);
  EXPECT_EQ(result.nodes_visited, 0u);
  ASSERT_EQ(result.partitioning.size(), 1u);
  EXPECT_EQ(result.partitioning[0].rows.size(), 100u);
}

}  // namespace
}  // namespace fairrank

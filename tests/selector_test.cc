#include <gtest/gtest.h>

#include "balanced_oracle.h"
#include "fairness/algorithm.h"
#include "fairness/splitter.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

using balanced_oracle::SelectGlobalOverRows;

// The evaluator holds a pointer to its table, so the table lives behind a
// stable unique_ptr address for the fixture's lifetime.
struct Fixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<UnfairnessEvaluator> evaluator;

  const Table& workers() const { return *table; }
  const UnfairnessEvaluator& eval() const { return *evaluator; }
};

Fixture MakeFixture(const ScoringFunction& fn, size_t n = 300,
                    uint64_t seed = 6) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  Fixture fx;
  fx.table = std::make_unique<Table>(GenerateWorkers(options).value());
  fx.evaluator = std::make_unique<UnfairnessEvaluator>(
      UnfairnessEvaluator::Make(fx.table.get(),
                                fn.ScoreAll(*fx.table).value(),
                                EvaluatorOptions())
          .value());
  return fx;
}

TEST(WorstAttributeSelectorTest, GlobalPicksGenderUnderF6) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6);
  auto selector = MakeWorstAttributeSelector();
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  size_t pos =
      SelectGlobalOverRows(*selector, fx.eval(), root, attrs).value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[pos]).name(),
            worker_attrs::kGender);
}

TEST(WorstAttributeSelectorTest, LocalPicksCountryInsideGenderUnderF7) {
  auto f7 = MakeF7(3);
  Fixture fx = MakeFixture(*f7, 600);
  auto selector = MakeWorstAttributeSelector();
  size_t gender =
      fx.workers().schema().FindIndex(worker_attrs::kGender).value();
  auto children = SplitPartition(
      fx.workers(), MakeRootPartition(fx.workers().num_rows()), gender);
  ASSERT_EQ(children.size(), 2u);
  std::vector<Partition> siblings = {children[1]};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  attrs.erase(std::find(attrs.begin(), attrs.end(), gender));
  size_t pos =
      selector->SelectLocal(fx.eval(), children[0], siblings, attrs).value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[pos]).name(),
            worker_attrs::kCountry);
}

TEST(WorstAttributeSelectorTest, IdenticalSplitsKeepTheFirstAttribute) {
  // "Team" and "Twin" hold the same value on every row, so their splits
  // are identical and tie exactly; "Side" only sets up the local level.
  Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Side", AttributeRole::kProtected, {"L", "R"}))
                  .ok());
  for (const char* name : {"Team", "Twin"}) {
    ASSERT_TRUE(schema
                    .AddAttribute(AttributeSpec::Categorical(
                        name, AttributeRole::kProtected, {"A", "B", "C"}))
                    .ok());
  }
  Table table(std::move(schema));
  const char* kTeams[] = {"A", "B", "C"};
  std::vector<double> scores;
  for (size_t row = 0; row < 24; ++row) {
    const std::string team = kTeams[row % 3];
    ASSERT_TRUE(
        table.AppendRow({std::string(row < 12 ? "L" : "R"), team, team}).ok());
    scores.push_back(0.1 + 0.3 * static_cast<double>(row % 3) +
                     0.01 * static_cast<double>(row % 5));
  }
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).value();
  auto selector = MakeWorstAttributeSelector();
  const size_t side = 0;
  const size_t team = 1;
  const size_t twin = 2;

  Partitioning root{MakeRootPartition(table.num_rows())};
  EXPECT_EQ(SelectGlobalOverRows(*selector, eval, root, {team, twin}).value(),
            0u);
  EXPECT_EQ(SelectGlobalOverRows(*selector, eval, root, {twin, team}).value(),
            0u);
  // A weaker attribute ahead of the twins does not win the tie.
  EXPECT_EQ(
      SelectGlobalOverRows(*selector, eval, root, {side, team, twin}).value(),
      1u);

  auto halves = SplitPartition(table, root[0], side);
  ASSERT_EQ(halves.size(), 2u);
  std::vector<Partition> siblings = {halves[1]};
  EXPECT_EQ(
      selector->SelectLocal(eval, halves[0], siblings, {team, twin}).value(),
      0u);
  EXPECT_EQ(
      selector->SelectLocal(eval, halves[0], siblings, {twin, team}).value(),
      0u);
}

TEST(WorstAttributeSelectorTest, RoundingLevelTiesKeepTheFirstAttribute) {
  // Figure 1's toy data: splitting the root on Gender or on Language both
  // give an average EMD of exactly 0.3, but the two sums round differently.
  // The tie rule, not the rounding, decides: the first attribute wins.
  Table table = MakeToyTable().value();
  const size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).value();
  const size_t gender =
      table.schema().FindIndex(worker_attrs::kGender).value();
  const size_t language =
      table.schema().FindIndex(worker_attrs::kLanguage).value();
  Partitioning root{MakeRootPartition(table.num_rows())};
  EXPECT_NEAR(
      eval.AveragePairwiseUnfairness(SplitAll(table, root, gender)).value(),
      0.3, 1e-15);
  EXPECT_NEAR(
      eval.AveragePairwiseUnfairness(SplitAll(table, root, language)).value(),
      0.3, 1e-15);
  auto selector = MakeWorstAttributeSelector();
  EXPECT_EQ(
      SelectGlobalOverRows(*selector, eval, root, {gender, language}).value(),
      0u);
  EXPECT_EQ(
      SelectGlobalOverRows(*selector, eval, root, {language, gender}).value(),
      0u);
}

TEST(WorstAttributeSelectorTest, EmptyAttributeListFails) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  auto selector = MakeWorstAttributeSelector();
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  EXPECT_FALSE(SelectGlobalOverRows(*selector, fx.eval(), root, {}).ok());
  EXPECT_FALSE(selector->SelectLocal(fx.eval(), root[0], {}, {}).ok());
}

TEST(RandomAttributeSelectorTest, DeterministicGivenSeed) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  auto a = MakeRandomAttributeSelector(9);
  auto b = MakeRandomAttributeSelector(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SelectGlobalOverRows(*a, fx.eval(), root, attrs).value(),
              SelectGlobalOverRows(*b, fx.eval(), root, attrs).value());
  }
}

TEST(RandomAttributeSelectorTest, CoversAllPositions) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  auto selector = MakeRandomAttributeSelector(4);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(
        SelectGlobalOverRows(*selector, fx.eval(), root, attrs).value());
  }
  EXPECT_EQ(seen.size(), attrs.size());
}

TEST(RandomAttributeSelectorTest, EmptyAttributeListFails) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  auto selector = MakeRandomAttributeSelector(1);
  EXPECT_FALSE(SelectGlobalOverRows(*selector, fx.eval(), root, {}).ok());
}

}  // namespace
}  // namespace fairrank

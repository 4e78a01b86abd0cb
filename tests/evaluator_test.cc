#include "fairness/evaluator.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/telemetry.h"
#include "fairness/splitter.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

/// Toy table + the toy observed score as the audited scores.
struct Fixture {
  Table table;
  UnfairnessEvaluator eval;
};

std::vector<double> ToyScores(const Table& table) {
  size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  return scores;
}

UnfairnessEvaluator MakeToyEvaluator(const Table* table,
                                     EvaluatorOptions options = {}) {
  return UnfairnessEvaluator::Make(table, ToyScores(*table), options).value();
}

TEST(EvaluatorTest, MakeValidation) {
  Table table = MakeToyTable().value();
  EvaluatorOptions options;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(nullptr, {}, options).ok());
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, {0.5}, options).ok());  // Size.
  options.num_bins = 0;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options.num_bins = kMaxBins + 1;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options.num_bins = kMaxBins;
  EXPECT_TRUE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options.num_bins = 10;
  options.score_hi = options.score_lo;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options = EvaluatorOptions();
  options.divergence = "bogus";
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
}

TEST(EvaluatorTest, NonFiniteScoresRejected) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).ok());
  scores[3] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).ok());
}

TEST(EvaluatorTest, OutOfRangeScoresCountedByDefault) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[0] = -0.25;
  scores[1] = 1.5;
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).value();
  EXPECT_EQ(eval.num_out_of_range(), 2u);
  // In-range vectors report zero.
  EXPECT_EQ(MakeToyEvaluator(&table).num_out_of_range(), 0u);
  // Built histograms fold the offenders into the edge bins exactly as
  // Histogram::Add does, clamped mass included.
  Partition root = MakeRootPartition(table.num_rows());
  Histogram naive(10, 0.0, 1.0);
  for (size_t row : root.rows) naive.Add(scores[row]);
  Histogram built = eval.BuildHistogram(root);
  EXPECT_EQ(built.counts(), naive.counts());
  EXPECT_EQ(built.total(), naive.total());
  EXPECT_EQ(built.clamped_count(), 2.0);
}

TEST(EvaluatorTest, OutOfRangeScoresRejectedUnderRejectPolicy) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[0] = 1.5;
  EvaluatorOptions options;
  options.out_of_range = OutOfRangePolicy::kReject;
  StatusOr<UnfairnessEvaluator> eval =
      UnfairnessEvaluator::Make(&table, scores, options);
  EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
  // The boundary itself is in range (hi is inclusive).
  scores[0] = 1.0;
  EXPECT_TRUE(UnfairnessEvaluator::Make(&table, scores, options).ok());
}

TEST(EvaluatorTest, BuildHistogramCountsPartitionScores) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Histogram female = eval.BuildHistogram(children[1]);
  EXPECT_DOUBLE_EQ(female.total(), 4.0);
  EXPECT_DOUBLE_EQ(female.counts()[4], 4.0);  // All four at 0.42.
}

TEST(EvaluatorTest, SinglePartitionUnfairnessIsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partitioning p{MakeRootPartition(table.num_rows())};
  EXPECT_DOUBLE_EQ(eval.AveragePairwiseUnfairness(p).value(), 0.0);
}

TEST(EvaluatorTest, TwoPartitionUnfairnessEqualsTheirDistance) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  double unfairness = eval.AveragePairwiseUnfairness(p).value();
  double distance = eval.Distance(children[0], children[1]).value();
  EXPECT_DOUBLE_EQ(unfairness, distance);
  EXPECT_GT(unfairness, 0.0);
}

TEST(EvaluatorTest, AverageIsMeanOverPairs) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto males = SplitPartition(table, by_gender[0], language);
  Partitioning p(males.begin(), males.end());
  p.push_back(by_gender[1]);
  ASSERT_EQ(p.size(), 4u);
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = i + 1; j < p.size(); ++j) {
      sum += eval.Distance(p[i], p[j]).value();
    }
  }
  EXPECT_NEAR(eval.AveragePairwiseUnfairness(p).value(), sum / 6.0, 1e-12);
}

TEST(EvaluatorTest, AverageWithSiblingsEmptyIsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partition root = MakeRootPartition(table.num_rows());
  EXPECT_DOUBLE_EQ(eval.AverageWithSiblings(root, {}).value(), 0.0);
}

TEST(EvaluatorTest, AverageWithSiblingsMatchesManualMean) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t language = table.schema().FindIndex("Language").value();
  auto parts =
      SplitPartition(table, MakeRootPartition(table.num_rows()), language);
  ASSERT_EQ(parts.size(), 3u);
  std::vector<Partition> siblings = {parts[1], parts[2]};
  double manual = (eval.Distance(parts[0], parts[1]).value() +
                   eval.Distance(parts[0], parts[2]).value()) /
                  2.0;
  EXPECT_NEAR(eval.AverageWithSiblings(parts[0], siblings).value(), manual,
              1e-12);
}

TEST(EvaluatorTest, ChildPairsReadingCountsChildPairsOnly) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto male_children = SplitPartition(table, by_gender[0], language);
  std::vector<Partition> siblings = {by_gender[1]};

  // Manual: 3 child-child pairs + 3 child-sibling pairs.
  double sum = 0.0;
  for (size_t i = 0; i < male_children.size(); ++i) {
    for (size_t j = i + 1; j < male_children.size(); ++j) {
      sum += eval.Distance(male_children[i], male_children[j]).value();
    }
    sum += eval.Distance(male_children[i], siblings[0]).value();
  }
  EXPECT_NEAR(
      eval.AverageChildrenWithSiblings(male_children, siblings).value(),
      sum / 6.0, 1e-12);
}

TEST(EvaluatorTest, AllPairsReadingIncludesSiblingPairs) {
  Table table = MakeToyTable().value();
  EvaluatorOptions options;
  options.sibling_comparison = SiblingComparison::kAllPairs;
  UnfairnessEvaluator eval = MakeToyEvaluator(&table, options);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_language =
      SplitPartition(table, MakeRootPartition(table.num_rows()), language);
  ASSERT_EQ(by_language.size(), 3u);
  auto children = SplitPartition(table, by_language[0], gender);
  std::vector<Partition> siblings = {by_language[1], by_language[2]};
  // All-pairs reading equals the average pairwise unfairness of
  // children ∪ siblings.
  Partitioning combined(children.begin(), children.end());
  combined.insert(combined.end(), siblings.begin(), siblings.end());
  EXPECT_NEAR(eval.AverageChildrenWithSiblings(children, siblings).value(),
              eval.AveragePairwiseUnfairness(combined).value(), 1e-12);
}

TEST(EvaluatorTest, NoQualifyingPairsYieldsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  // Single child, no siblings: no pairs at all.
  EXPECT_DOUBLE_EQ(
      eval.AverageChildrenWithSiblings({children[0]}, {}).value(), 0.0);
}

TEST(TopDivergentPairsTest, SortedAndClamped) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto males = SplitPartition(table, by_gender[0], language);
  Partitioning p(males.begin(), males.end());
  p.push_back(by_gender[1]);  // 4 partitions -> 6 pairs.

  auto pairs = TopDivergentPairs(eval, p, 100);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 6u);  // k larger than pair count is clamped.
  for (size_t i = 1; i < pairs->size(); ++i) {
    EXPECT_GE((*pairs)[i - 1].distance, (*pairs)[i].distance);
  }
  auto top2 = TopDivergentPairs(eval, p, 2).value();
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].distance, (*pairs)[0].distance);

  // The most divergent pair in the toy data is Male-English (0.875 mean)
  // vs Male-Other (0.125 mean).
  std::set<std::string> labels = {
      PartitionLabel(table.schema(), p[top2[0].index_a]),
      PartitionLabel(table.schema(), p[top2[0].index_b])};
  EXPECT_TRUE(labels.count("Gender=Male & Language=English"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Other"));
}

TEST(TopDivergentPairsTest, DegenerateInputs) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partitioning root{MakeRootPartition(table.num_rows())};
  EXPECT_TRUE(TopDivergentPairs(eval, root, 5)->empty());
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  EXPECT_TRUE(TopDivergentPairs(eval, p, 0)->empty());
}

TEST(EvaluatorTest, DivergenceOptionChangesMeasure) {
  Table table = MakeToyTable().value();
  EvaluatorOptions emd_options;
  EvaluatorOptions tv_options;
  tv_options.divergence = "tv";
  UnfairnessEvaluator emd_eval = MakeToyEvaluator(&table, emd_options);
  UnfairnessEvaluator tv_eval = MakeToyEvaluator(&table, tv_options);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  EXPECT_NE(emd_eval.AveragePairwiseUnfairness(p).value(),
            tv_eval.AveragePairwiseUnfairness(p).value());
}

// ---------------------------------------------------------------------------
// Oracles. The evaluator's pair loops (PMFs built once per call for "emd",
// Divergence::Distance otherwise) must equal, bit for bit, a naive loop over
// histograms built straight from rows — for every divergence and both
// sibling readings.

/// A generated population scored by alpha:0.5, split on three protected
/// attributes: dozens of partitions with uneven sizes.
struct OracleFixture {
  explicit OracleFixture(Table t) : table(std::move(t)) {
    scores = MakeAlphaFunction("f", 0.5)->ScoreAll(table).value();
    cells = {MakeRootPartition(table.num_rows())};
    std::vector<size_t> attrs = table.schema().ProtectedIndices();
    for (size_t a = 0; a < 3; ++a) cells = SplitAll(table, cells, attrs[a]);
  }

  UnfairnessEvaluator Make(const EvaluatorOptions& options) const {
    return UnfairnessEvaluator::Make(&table, scores, options).value();
  }

  Table table;
  std::vector<double> scores;
  Partitioning cells;
};

OracleFixture MakeOracleFixture() {
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 17;
  return OracleFixture(GenerateWorkers(gen).value());
}

/// The row-built histogram of `p`, as the paper defines it.
Histogram NaiveHistogram(const std::vector<double>& scores,
                         const Partition& p) {
  Histogram h(EvaluatorOptions().num_bins, 0.0, 1.0);
  for (size_t row : p.rows) h.Add(scores[row]);
  return h;
}

/// Mean of `divergence` over `pairs` of row-built histograms, summed in the
/// given order.
double NaiveMean(const Divergence& divergence,
                 const std::vector<double>& scores,
                 const std::vector<std::pair<const Partition*,
                                             const Partition*>>& pairs) {
  double sum = 0.0;
  for (const auto& [a, b] : pairs) {
    sum += divergence
               .Distance(NaiveHistogram(scores, *a),
                         NaiveHistogram(scores, *b))
               .value();
  }
  return sum / static_cast<double>(pairs.size());
}

TEST(EvaluatorOracleTest, PairwiseAverageEqualsNaiveLoopForEveryDivergence) {
  OracleFixture f = MakeOracleFixture();
  ASSERT_GE(f.cells.size(), 20u);
  std::vector<std::pair<const Partition*, const Partition*>> pairs;
  for (size_t i = 0; i < f.cells.size(); ++i) {
    for (size_t j = i + 1; j < f.cells.size(); ++j) {
      pairs.emplace_back(&f.cells[i], &f.cells[j]);
    }
  }
  for (const std::string& name : KnownDivergenceNames()) {
    EvaluatorOptions options;
    options.divergence = name;
    UnfairnessEvaluator eval = f.Make(options);
    const double average = eval.AveragePairwiseUnfairness(f.cells).value();
    const double naive = NaiveMean(eval.divergence(), f.scores, pairs);
    if (name == "emd") {
      // The closed form: no longer the pair loop's summation order.
      EXPECT_NEAR(average, naive, 4e-12 * naive) << name;
    } else {
      EXPECT_EQ(average, naive) << name;
    }
  }
}

TEST(EvaluatorOracleTest, SiblingAveragesEqualNaiveLoopsForEveryDivergence) {
  OracleFixture f = MakeOracleFixture();
  const Partition& current = f.cells[0];
  std::vector<Partition> siblings(f.cells.begin() + 1, f.cells.end());
  // Children of the largest cell on a fourth attribute.
  const Partition& parent = *std::max_element(
      f.cells.begin(), f.cells.end(),
      [](const Partition& a, const Partition& b) {
        return a.size() < b.size();
      });
  std::vector<Partition> children = SplitPartition(
      f.table, parent, f.table.schema().ProtectedIndices()[3]);
  ASSERT_GE(children.size(), 2u);

  std::vector<std::pair<const Partition*, const Partition*>> with_siblings;
  for (const Partition& s : siblings) with_siblings.emplace_back(&current, &s);
  std::vector<std::pair<const Partition*, const Partition*>> child_pairs;
  for (size_t i = 0; i < children.size(); ++i) {
    for (size_t j = i + 1; j < children.size(); ++j) {
      child_pairs.emplace_back(&children[i], &children[j]);
    }
  }
  for (const Partition& c : children) {
    for (const Partition& s : siblings) child_pairs.emplace_back(&c, &s);
  }
  std::vector<std::pair<const Partition*, const Partition*>> all_pairs =
      child_pairs;
  for (size_t i = 0; i < siblings.size(); ++i) {
    for (size_t j = i + 1; j < siblings.size(); ++j) {
      all_pairs.emplace_back(&siblings[i], &siblings[j]);
    }
  }

  for (const std::string& name : KnownDivergenceNames()) {
    EvaluatorOptions options;
    options.divergence = name;
    UnfairnessEvaluator eval = f.Make(options);
    const Divergence& divergence = eval.divergence();
    EXPECT_EQ(eval.AverageWithSiblings(current, siblings).value(),
              NaiveMean(divergence, f.scores, with_siblings))
        << name;
    EXPECT_EQ(eval.AverageChildrenWithSiblings(children, siblings).value(),
              NaiveMean(divergence, f.scores, child_pairs))
        << name;
    EXPECT_EQ(eval.Distance(children[0], children[1]).value(),
              NaiveMean(divergence, f.scores, {child_pairs.front()}))
        << name;
    options.sibling_comparison = SiblingComparison::kAllPairs;
    UnfairnessEvaluator all_eval = f.Make(options);
    EXPECT_EQ(all_eval.AverageChildrenWithSiblings(children, siblings).value(),
              NaiveMean(divergence, f.scores, all_pairs))
        << name;
  }
}

TEST(EvaluatorOracleTest, ParallelPairLoopIsBitIdenticalToSerial) {
  OracleFixture f = MakeOracleFixture();
  for (const char* name : {"emd", "js"}) {
    EvaluatorOptions options;
    options.divergence = name;
    UnfairnessEvaluator serial = f.Make(options);
    options.num_threads = 4;
    UnfairnessEvaluator parallel = f.Make(options);
    EXPECT_EQ(serial.PairwiseDistances(f.cells).value(),
              parallel.PairwiseDistances(f.cells).value())
        << name;
    EXPECT_EQ(serial.AveragePairwiseUnfairness(f.cells).value(),
              parallel.AveragePairwiseUnfairness(f.cells).value())
        << name;
  }
}

TEST(EvaluatorOracleTest, EmptyPartitionFailsLikeTheDivergence) {
  // The PMF fast path must not turn an empty histogram into NaN: the pair
  // falls back to the divergence, which rejects it.
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partitioning p{MakeRootPartition(table.num_rows()), Partition()};
  StatusOr<double> avg = eval.AveragePairwiseUnfairness(p);
  ASSERT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TopDivergentPairsTest, TiesKeepPairOrder) {
  // {A, B, A, B, A}: every A-B pair ties at one distance, every A-A and B-B
  // pair at 0. The top pairs must come out as a stable sort of the pair
  // loop's slots by distance puts them.
  OracleFixture f = MakeOracleFixture();
  Partitioning p{f.cells[0], f.cells[1], f.cells[0], f.cells[1], f.cells[0]};
  UnfairnessEvaluator eval = f.Make(EvaluatorOptions());
  std::vector<double> distances = eval.PairwiseDistances(p).value();
  std::vector<DivergentPair> expected;
  size_t m = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = i + 1; j < p.size(); ++j) {
      expected.push_back({i, j, distances[m++]});
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const DivergentPair& a, const DivergentPair& b) {
                     return a.distance > b.distance;
                   });
  ASSERT_GT(expected.front().distance, 0.0);
  for (size_t k : {1, 3, 6, 7, 10, 100}) {
    std::vector<DivergentPair> top = TopDivergentPairs(eval, p, k).value();
    ASSERT_EQ(top.size(), std::min(k, expected.size())) << k;
    for (size_t r = 0; r < top.size(); ++r) {
      EXPECT_EQ(top[r].index_a, expected[r].index_a) << k << " " << r;
      EXPECT_EQ(top[r].index_b, expected[r].index_b) << k << " " << r;
      EXPECT_EQ(top[r].distance, expected[r].distance) << k << " " << r;
    }
  }
  // The six A-B pairs tie for the top, in slot order.
  std::vector<DivergentPair> top = TopDivergentPairs(eval, p, 6).value();
  const std::vector<std::pair<size_t, size_t>> ab = {
      {0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {3, 4}};
  for (size_t r = 0; r < ab.size(); ++r) {
    EXPECT_EQ(std::make_pair(top[r].index_a, top[r].index_b), ab[r]) << r;
    EXPECT_EQ(top[r].distance, top[0].distance) << r;
  }
}

// ---------------------------------------------------------------------------
// The "emd" average is a closed form (sorted CDF columns), not a pair loop.
// Its oracle is the O(k²) pair loop in extended precision.

/// Long-double average pairwise EMD of `partitioning`: CDFs from row-built
/// histograms, each pair's Σ|CDF_a − CDF_b| summed in long double, and the
/// pairs added with compensated summation. A plain accumulator is not good
/// enough here: at Table 2 scale the same few per-pair values repeat over
/// 1.5M pairs, so its rounding errors add up (~3.5e-14 high at 100 bins).
long double ExtendedPrecisionAverageEmd(const std::vector<double>& scores,
                                        const Partitioning& partitioning,
                                        int num_bins) {
  const size_t k = partitioning.size();
  const size_t bins = static_cast<size_t>(num_bins);
  std::vector<long double> cdfs(k * bins);
  for (size_t i = 0; i < k; ++i) {
    Histogram h(num_bins, 0.0, 1.0);
    for (size_t row : partitioning[i].rows) h.Add(scores[row]);
    long double cumulative = 0.0L;
    for (size_t b = 0; b < bins; ++b) {
      cumulative += h.counts()[b];
      cdfs[i * bins + b] = cumulative / static_cast<long double>(h.total());
    }
  }
  long double sum = 0.0L;
  long double compensation = 0.0L;
  for (size_t i = 0; i < k; ++i) {
    const long double* a = cdfs.data() + i * bins;
    for (size_t j = i + 1; j < k; ++j) {
      const long double* b = cdfs.data() + j * bins;
      long double pair = 0.0L;
      for (size_t bin = 0; bin < bins; ++bin) {
        pair += std::fabs(a[bin] - b[bin]);
      }
      const long double y = pair - compensation;
      const long double t = sum + y;
      compensation = (t - sum) - y;
      sum = t;
    }
  }
  const long double num_pairs = static_cast<long double>(k * (k - 1) / 2);
  return sum / static_cast<long double>(num_bins) / num_pairs;
}

TEST(EvaluatorClosedFormTest, MatchesExtendedPrecisionLoopAtTable2Scale) {
  // Table 2's population: 7300 workers, every protected attribute split.
  GeneratorOptions gen;
  gen.num_workers = 7300;
  gen.seed = 20190326;
  Table table = GenerateWorkers(gen).value();
  Partitioning cells{MakeRootPartition(table.num_rows())};
  for (size_t attr : table.schema().ProtectedIndices()) {
    cells = SplitAll(table, cells, attr);
  }
  ASSERT_GT(cells.size(), 1500u);
  for (const auto& function : MakePaperRandomFunctions()) {
    std::vector<double> scores = function->ScoreAll(table).value();
    for (int num_bins : {10, 100}) {
      EvaluatorOptions options;
      options.num_bins = num_bins;
      // Only the pair loop uses the threads; its sums are bit-identical to
      // a serial run's.
      options.num_threads = 4;
      UnfairnessEvaluator eval =
          UnfairnessEvaluator::Make(&table, scores, options).value();
      const double closed = eval.AveragePairwiseUnfairness(cells).value();
      const double oracle = static_cast<double>(
          ExtendedPrecisionAverageEmd(scores, cells, num_bins));
      EXPECT_NEAR(closed, oracle, 1e-14 * oracle)
          << function->Name() << " bins=" << num_bins;
      // The double pair loop sums 1.5M rounded distances; it is the less
      // accurate of the two.
      std::vector<double> distances = eval.PairwiseDistances(cells).value();
      double loop = 0.0;
      for (double d : distances) loop += d;
      loop /= static_cast<double>(distances.size());
      EXPECT_NEAR(closed, loop, 4e-12 * loop)
          << function->Name() << " bins=" << num_bins;
    }
  }
}

TEST(EvaluatorClosedFormTest, TwoPartitionsEqualTheirDistance) {
  OracleFixture f = MakeOracleFixture();
  UnfairnessEvaluator eval = f.Make(EvaluatorOptions());
  for (size_t i = 1; i < f.cells.size(); ++i) {
    Partitioning p{f.cells[0], f.cells[i]};
    EXPECT_NEAR(eval.AveragePairwiseUnfairness(p).value(),
                eval.Distance(f.cells[0], f.cells[i]).value(), 1e-15)
        << i;
  }
}

TEST(EvaluatorClosedFormTest, IdenticalPartitionsGiveExactlyZero) {
  OracleFixture f = MakeOracleFixture();
  UnfairnessEvaluator eval = f.Make(EvaluatorOptions());
  Partitioning p(5, f.cells[2]);
  EXPECT_EQ(eval.AveragePairwiseUnfairness(p).value(), 0.0);
}

TEST(EvaluatorClosedFormTest, CountsHistogramsButNoPairs) {
  // The pipeline counter keeps its meaning, "pairwise divergences
  // computed": the closed form computes none.
  OracleFixture f = MakeOracleFixture();
  UnfairnessEvaluator eval = f.Make(EvaluatorOptions());
  MetricsRegistry& registry = MetricsRegistry::Global();
  MetricCounter* pairs = registry.GetCounter(
      "fairrank_pipeline_emd_computations_total",
      "Pairwise divergences computed");
  MetricCounter* builds = registry.GetCounter(
      "fairrank_pipeline_histogram_builds_total",
      "Per-partition score histograms built");
  const uint64_t pairs_before = pairs->value();
  const uint64_t builds_before = builds->value();
  ASSERT_TRUE(eval.AveragePairwiseUnfairness(f.cells).ok());
  EXPECT_EQ(pairs->value(), pairs_before);
  EXPECT_EQ(builds->value(), builds_before + f.cells.size());
}

TEST(EvaluatorClosedFormTest, HonorsDeadlineAndCancellation) {
  OracleFixture f = MakeOracleFixture();
  EvaluatorOptions options;
  options.deadline = Deadline::AfterMillis(0);
  StatusOr<double> expired =
      f.Make(options).AveragePairwiseUnfairness(f.cells);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  CancellationSource source;
  source.RequestCancellation();
  options = EvaluatorOptions();
  options.cancel = source.token();
  StatusOr<double> cancelled =
      f.Make(options).AveragePairwiseUnfairness(f.cells);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(EvaluatorClosedFormTest, ArmedFaultsStillRunThePairLoop) {
  OracleFixture f = MakeOracleFixture();
  UnfairnessEvaluator eval = f.Make(EvaluatorOptions());
  const size_t k = f.cells.size();
  {
    // Armed with no divergence fault: every pair is evaluated one by one.
    fault::ScopedFaultPlan armed(fault::FaultPlan{});
    ASSERT_TRUE(eval.AveragePairwiseUnfairness(f.cells).ok());
    EXPECT_EQ(fault::divergence_evals_hit(), k * (k - 1) / 2);
  }
  fault::FaultPlan plan;
  plan.fail_divergence_eval = 7;
  fault::ScopedFaultPlan armed(plan);
  StatusOr<double> avg = eval.AveragePairwiseUnfairness(f.cells);
  ASSERT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace fairrank

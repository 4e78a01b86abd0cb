// Micro benchmarks: EMD implementations and the other divergences across
// histogram resolutions. The closed-form 1-D EMD is what the evaluator's
// pair loops call; the transportation-solver EMD is the
// general-ground-distance cross-check. BM_AverageEmd compares the
// evaluator's closed-form average pairwise EMD against averaging the pair
// loop's distances, at Table 2's population size.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "fairness/evaluator.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "stats/divergence.h"
#include "stats/emd.h"
#include "stats/histogram.h"
#include "stats/quantile_sketch.h"

namespace fairrank {
namespace {

std::pair<Histogram, Histogram> RandomHistograms(int bins, int samples,
                                                 uint64_t seed) {
  Rng rng(seed);
  Histogram a(bins, 0.0, 1.0);
  Histogram b(bins, 0.0, 1.0);
  for (int i = 0; i < samples; ++i) {
    a.Add(rng.NextDouble());
    b.Add(rng.NextDouble());
  }
  return {a, b};
}

void BM_Emd1D(benchmark::State& state) {
  auto [a, b] = RandomHistograms(static_cast<int>(state.range(0)), 1000, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Emd1D(a, b).value());
  }
}
BENCHMARK(BM_Emd1D)->Arg(10)->Arg(20)->Arg(50)->Arg(100)->Arg(500);

void BM_EmdGeneralTransportation(benchmark::State& state) {
  auto [a, b] = RandomHistograms(static_cast<int>(state.range(0)), 1000, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdGeneral1DCost(a, b).value());
  }
}
BENCHMARK(BM_EmdGeneralTransportation)->Arg(10)->Arg(20)->Arg(50);

void BM_EmdThresholded(benchmark::State& state) {
  auto [a, b] = RandomHistograms(static_cast<int>(state.range(0)), 1000, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdThresholded(a, b, 0.3).value());
  }
}
BENCHMARK(BM_EmdThresholded)->Arg(10)->Arg(20);

void BM_Divergence(benchmark::State& state,
                   const std::string& name) {
  auto divergence = MakeDivergenceByName(name).value();
  auto [a, b] = RandomHistograms(10, 1000, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(divergence->Distance(a, b).value());
  }
}
BENCHMARK_CAPTURE(BM_Divergence, js, "js");
BENCHMARK_CAPTURE(BM_Divergence, kl, "kl");
BENCHMARK_CAPTURE(BM_Divergence, tv, "tv");
BENCHMARK_CAPTURE(BM_Divergence, ks, "ks");
BENCHMARK_CAPTURE(BM_Divergence, hellinger, "hellinger");

/// unfairness(P, f) over k partitions of 7300 generated workers (Table 2's
/// population), dealt round-robin and scored by alpha:0.5: the closed form
/// (AveragePairwiseUnfairness) or the mean of every pair's distance
/// (PairwiseDistances).
void BM_AverageEmd(benchmark::State& state, bool closed_form) {
  const size_t k = static_cast<size_t>(state.range(0));
  GeneratorOptions gen;
  gen.num_workers = 7300;
  gen.seed = 42;
  const Table table = GenerateWorkers(gen).value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(
          &table, MakeAlphaFunction("f1", 0.5)->ScoreAll(table).value(),
          EvaluatorOptions())
          .value();
  Partitioning partitioning(k);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    partitioning[row % k].rows.push_back(row);
  }
  for (auto _ : state) {
    if (closed_form) {
      benchmark::DoNotOptimize(
          eval.AveragePairwiseUnfairness(partitioning).value());
    } else {
      std::vector<double> distances =
          eval.PairwiseDistances(partitioning).value();
      double sum = 0.0;
      for (double d : distances) sum += d;
      benchmark::DoNotOptimize(sum / static_cast<double>(distances.size()));
    }
  }
  state.counters["pairs"] = static_cast<double>(k * (k - 1) / 2);
}
BENCHMARK_CAPTURE(BM_AverageEmd, closed_form, true)
    ->Arg(64)
    ->Arg(512)
    ->Arg(1767)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AverageEmd, pair_loop, false)
    ->Arg(64)
    ->Arg(512)
    ->Arg(1767)
    ->Unit(benchmark::kMicrosecond);

void BM_GkSketchInsert(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> values(100000);
  for (double& v : values) v = rng.NextDouble();
  size_t i = 0;
  GkSketch sketch(0.01);
  for (auto _ : state) {
    sketch.Insert(values[i]);
    i = (i + 1) % values.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GkSketchInsert);

void BM_EmdFromSketches(benchmark::State& state) {
  Rng rng(13);
  GkSketch a(0.01);
  GkSketch b(0.01);
  for (int i = 0; i < 50000; ++i) {
    a.Insert(rng.UniformDouble(0.0, 0.6));
    b.Insert(rng.UniformDouble(0.4, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmdFromSketches(a, b, 256).value());
  }
}
BENCHMARK(BM_EmdFromSketches);

void BM_HistogramBuild(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    Histogram h(10, 0.0, 1.0);
    for (double v : values) h.Add(v);
    benchmark::DoNotOptimize(h.total());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)->Arg(500)->Arg(7300)->Arg(50000);

}  // namespace
}  // namespace fairrank

BENCHMARK_MAIN();

#ifndef FAIRRANK_STATS_EMD_H_
#define FAIRRANK_STATS_EMD_H_

#include <cmath>
#include <vector>

#include "common/status.h"
#include "stats/histogram.h"

namespace fairrank {

/// Earth Mover's Distance between two same-shape, non-empty histograms with
/// the 1-D ground distance |bin_center_i - bin_center_j| in the value domain.
///
/// Because the ground distance is one-dimensional and convex, the optimal
/// plan is the monotone coupling and EMD reduces to the L1 distance between
/// CDFs scaled by the bin width:
///
///   EMD(a, b) = bin_width * sum_i |CDF_a(i) - CDF_b(i)|
///
/// Histograms are normalized to probability mass before comparison, so
/// partitions of different sizes are comparable (the paper compares, e.g.,
/// a Male partition against a Female partition of different cardinality).
///
/// On the paper's score range [0,1] the result lies in
/// [0, hi - lo - bin_width]. Fails with InvalidArgument on shape mismatch
/// and FailedPrecondition on an empty histogram.
StatusOr<double> Emd1D(const Histogram& a, const Histogram& b);

/// As Emd1D but on raw normalized mass vectors of equal length with unit
/// ground distance between adjacent bins scaled by `bin_width`.
/// `a` and `b` must each sum to 1 (not checked; garbage in, garbage out).
/// Inline: it is the evaluator's per-pair inner loop.
inline double Emd1DMass(const std::vector<double>& a,
                        const std::vector<double>& b, double bin_width) {
  double emd = 0.0;
  double cdf_diff = 0.0;
  // The final term |sum(a) - sum(b)| is included: it vanishes for
  // equal-mass inputs (normalized histograms agree up to rounding) but
  // carries the mass-imbalance cost for unnormalized or drifted vectors, so
  // imbalance is visible instead of silently dropped.
  for (size_t i = 0; i < a.size(); ++i) {
    cdf_diff += a[i] - b[i];
    emd += std::abs(cdf_diff);
  }
  return emd * bin_width;
}

/// General EMD with an arbitrary non-negative ground-distance matrix
/// (cost[i][j] = distance between bin i of `a` and bin j of `b`), solved
/// exactly via the transportation solver. Counts are scaled to a common
/// integer grid, so the result is exact for count-based histograms.
///
/// This is the Rubner/Pele-Werman formulation; Emd1D is its closed form for
/// the 1-D metric and is validated against this in tests.
StatusOr<double> EmdGeneral(const Histogram& a, const Histogram& b,
                            const std::vector<std::vector<double>>& cost);

/// Convenience: general EMD with the 1-D |center - center| ground distance.
StatusOr<double> EmdGeneral1DCost(const Histogram& a, const Histogram& b);

/// Thresholded EMD (Pele & Werman's EMD-hat family): ground distances are
/// clamped at `threshold`, making the metric robust to outlier bins. With
/// threshold >= full range this equals EmdGeneral1DCost.
StatusOr<double> EmdThresholded(const Histogram& a, const Histogram& b,
                                double threshold);

/// Builds the |center_i - center_j| cost matrix for two same-shape
/// histograms.
std::vector<std::vector<double>> Make1DCostMatrix(const Histogram& a,
                                                  const Histogram& b);

/// Exact (unbinned) Wasserstein-1 distance between two empirical samples:
/// the integral of |F_a - F_b| over the real line, computed by a sorted
/// merge in O((n+m) log(n+m)). Sample sizes may differ.
///
/// This is what the histogram EMD converges to as the bin count grows
/// (bench/ablation_bins reports both). Fails on an empty sample.
StatusOr<double> EmdSamples1D(std::vector<double> a, std::vector<double> b);

}  // namespace fairrank

#endif  // FAIRRANK_STATS_EMD_H_

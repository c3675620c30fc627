// Gaussian kernel density estimation.
//
// Algorithm 1, Step 1 estimates the class-conditional logit densities
// p(z_i | y = i) from the training histograms "by kernel density
// estimation". This is that estimator: a Gaussian-kernel KDE with
// Silverman's rule-of-thumb bandwidth by default, evaluated either from raw
// samples or from binned histogram counts (the binned path is what an
// embedded calibration step would use; both are tested against each other).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/histogram.hpp"

namespace mann::numeric {

/// One-dimensional Gaussian KDE.
class KernelDensity {
 public:
  /// Fits a KDE to raw samples.
  /// `bandwidth <= 0` selects Silverman's rule: 1.06 * sigma * n^(-1/5)
  /// (floored at a small epsilon so degenerate constant samples still
  /// yield a usable, sharply-peaked density).
  explicit KernelDensity(std::span<const float> samples,
                         float bandwidth = 0.0F);

  /// Fits a KDE to binned data: each bin center acts as `count` stacked
  /// samples. Matches the raw-sample fit as bins -> infinity.
  explicit KernelDensity(const Histogram& hist, float bandwidth = 0.0F);

  /// Density estimate p(x). Returns 0 when fitted on no data.
  [[nodiscard]] float operator()(float x) const noexcept;

  /// The largest single kernel term of operator()(x) — the nearest
  /// center's, normalised as operator() normalises its sum — in O(log n).
  /// Every term is >= 0, so in float arithmetic operator()(x) >=
  /// nearest_term(x), and operator()(x) <= sample_count() *
  /// nearest_term(x) up to rounding. NaN when x or a center is NaN (no
  /// bound holds then); 0 when fitted on no data.
  [[nodiscard]] float nearest_term(float x) const noexcept;

  [[nodiscard]] float bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] std::size_t sample_count() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

 private:
  void select_bandwidth(float requested, float sigma);
  void sort_centers();
  [[nodiscard]] float norm(float inv_h) const noexcept;

  std::vector<float> centers_;
  std::vector<float> weights_;  ///< per-center multiplicity
  std::vector<float> sorted_centers_;  ///< non-NaN centers, ascending
  std::size_t total_ = 0;
  float bandwidth_ = 1.0F;
};

}  // namespace mann::numeric

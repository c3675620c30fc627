#include "numeric/kde.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace mann::numeric {
namespace {

constexpr float kMinBandwidth = 1e-3F;

float sample_sigma(std::span<const float> samples) noexcept {
  if (samples.empty()) {
    return 0.0F;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (float s : samples) {
    sum += s;
    sum_sq += static_cast<double>(s) * s;
  }
  const double n = static_cast<double>(samples.size());
  const double mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - mean * mean);
  return static_cast<float>(std::sqrt(var));
}

/// exp(-u^2 / 2) at u = (x - center) / h: the one kernel expression that
/// operator() sums and nearest_term() bounds it with.
float gaussian(float x, float center, float inv_h) noexcept {
  const float u = (x - center) * inv_h;
  return std::exp(-0.5F * u * u);
}

}  // namespace

KernelDensity::KernelDensity(std::span<const float> samples, float bandwidth) {
  centers_.assign(samples.begin(), samples.end());
  weights_.assign(samples.size(), 1.0F);
  total_ = samples.size();
  select_bandwidth(bandwidth, sample_sigma(samples));
  sort_centers();
}

KernelDensity::KernelDensity(const Histogram& hist, float bandwidth) {
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    const std::size_t c = hist.count(b);
    if (c > 0) {
      centers_.push_back(hist.bin_center(b));
      weights_.push_back(static_cast<float>(c));
    }
  }
  total_ = hist.total();
  select_bandwidth(bandwidth, hist.stddev());
  sort_centers();
}

void KernelDensity::sort_centers() {
  sorted_centers_.clear();
  for (const float c : centers_) {
    if (!std::isnan(c)) {
      sorted_centers_.push_back(c);
    }
  }
  std::sort(sorted_centers_.begin(), sorted_centers_.end());
}

void KernelDensity::select_bandwidth(float requested, float sigma) {
  if (requested > 0.0F) {
    bandwidth_ = requested;
    return;
  }
  if (total_ == 0) {
    bandwidth_ = 1.0F;
    return;
  }
  const float n = static_cast<float>(total_);
  const float silverman = 1.06F * sigma * std::pow(n, -0.2F);
  bandwidth_ = std::max(silverman, kMinBandwidth);
}

float KernelDensity::norm(float inv_h) const noexcept {
  return inv_h / (static_cast<float>(total_) *
                  std::sqrt(2.0F * std::numbers::pi_v<float>));
}

float KernelDensity::operator()(float x) const noexcept {
  if (total_ == 0) {
    return 0.0F;
  }
  const float inv_h = 1.0F / bandwidth_;
  float acc = 0.0F;
  for (std::size_t i = 0; i < centers_.size(); ++i) {
    acc += weights_[i] * gaussian(x, centers_[i], inv_h);
  }
  return acc * norm(inv_h);
}

float KernelDensity::nearest_term(float x) const noexcept {
  if (centers_.empty()) {
    return 0.0F;
  }
  if (std::isnan(x) || sorted_centers_.size() != centers_.size()) {
    return std::numeric_limits<float>::quiet_NaN();
  }
  // The nearest center in rounded distance |x - c|, which is what the
  // kernel expression sees: one of the two around x's insertion point.
  const auto hi =
      std::lower_bound(sorted_centers_.begin(), sorted_centers_.end(), x);
  float nearest = 0.0F;
  if (hi == sorted_centers_.end()) {
    nearest = sorted_centers_.back();
  } else if (hi == sorted_centers_.begin() || *hi - x <= x - *(hi - 1)) {
    nearest = *hi;
  } else {
    nearest = *(hi - 1);
  }
  const float inv_h = 1.0F / bandwidth_;
  return gaussian(x, nearest, inv_h) * norm(inv_h);
}

}  // namespace mann::numeric

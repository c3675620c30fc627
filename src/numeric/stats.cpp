#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace mann::numeric {

Summary summarize(std::span<const float> values) noexcept {
  Summary s;
  if (values.empty()) {
    return s;
  }
  s.count = values.size();
  s.min = values[0];
  s.max = values[0];
  double sum = 0.0;
  double sq = 0.0;
  for (float v : values) {
    sum += v;
    sq += static_cast<double>(v) * v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  const double n = static_cast<double>(s.count);
  const double mean = sum / n;
  s.mean = static_cast<float>(mean);
  s.stddev = static_cast<float>(std::sqrt(std::max(0.0, sq / n - mean * mean)));
  return s;
}

float geometric_mean(std::span<const float> values) noexcept {
  if (values.empty()) {
    return 0.0F;
  }
  double acc = 0.0;
  for (float v : values) {
    if (v <= 0.0F) {
      return 0.0F;
    }
    acc += std::log(static_cast<double>(v));
  }
  return static_cast<float>(
      std::exp(acc / static_cast<double>(values.size())));
}

float percentile(std::span<const float> values, float p) {
  if (values.empty()) {
    throw std::invalid_argument("percentile: empty input");
  }
  std::vector<float> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const float clamped = std::clamp(p, 0.0F, 100.0F);
  const float pos =
      clamped / 100.0F * static_cast<float>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const float frac = pos - static_cast<float>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double jain_index(std::span<const double> shares) noexcept {
  if (shares.size() < 2) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

}  // namespace mann::numeric

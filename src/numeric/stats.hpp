// Small descriptive-statistics helpers shared by benches and reports.
#pragma once

#include <cstddef>
#include <span>

namespace mann::numeric {

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  float mean = 0.0F;
  float stddev = 0.0F;  ///< population stddev
  float min = 0.0F;
  float max = 0.0F;
};

/// Computes the summary in one pass. All-zero summary for empty input.
[[nodiscard]] Summary summarize(std::span<const float> values) noexcept;

/// Geometric mean of strictly positive values; 0 if any value <= 0 or empty.
/// Used to aggregate per-task energy-efficiency ratios (Fig. 4).
[[nodiscard]] float geometric_mean(std::span<const float> values) noexcept;

/// Linear-interpolated percentile (p in [0, 100]). Throws on empty input.
[[nodiscard]] float percentile(std::span<const float> values, float p);

/// Jain's fairness index (Σx)² / (n·Σx²): 1.0 when every share is equal,
/// 1/n when one share takes everything. 1.0 for fewer than two shares or
/// when every share is zero.
[[nodiscard]] double jain_index(std::span<const double> shares) noexcept;

}  // namespace mann::numeric

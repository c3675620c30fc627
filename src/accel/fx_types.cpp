#include "accel/fx_types.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace mann::accel {

FxMatrix::FxMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

FxMatrix quantize(const numeric::Matrix& m) {
  FxMatrix out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = Fx::from_float(m(r, c));
    }
  }
  return out;
}

numeric::Matrix dequantize(const FxMatrix& m) {
  numeric::Matrix out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = m(r, c).to_float();
    }
  }
  return out;
}

Fx fx_dot(std::span<const Fx> a, std::span<const Fx> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("fx_dot: length mismatch");
  }
  // Fast path: each product rounded exactly as Fx::operator* does, summed
  // in 64 bits. When the magnitudes sum to at most INT32_MAX, no product
  // and no prefix of the sequential accumulate saturates, so the plain sum
  // is bit-identical to it. A product is below 2^47 in magnitude, so the
  // 64-bit sums cannot overflow for spans under 2^16 words.
  constexpr std::size_t kFastMax = std::size_t{1} << 16U;
  if (a.size() < kFastMax) {
    constexpr std::int64_t kBias = std::int64_t{1} << (Fx::kFracBits - 1);
    std::int64_t sum = 0;
    std::int64_t magnitude = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int64_t prod = static_cast<std::int64_t>(a[i].raw()) *
                                static_cast<std::int64_t>(b[i].raw());
      // Branch-free sign handling: sign is 0 or -1, x ^ sign - sign = ±x.
      const std::int64_t sign = prod >> 63;
      const std::int64_t abs_rounded =
          (((prod ^ sign) - sign) + kBias) >> Fx::kFracBits;
      sum += (abs_rounded ^ sign) - sign;
      magnitude += abs_rounded;
    }
    if (magnitude <= std::numeric_limits<std::int32_t>::max()) {
      return Fx::from_raw(static_cast<std::int32_t>(sum));
    }
  }
  Fx acc;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

void fx_axpy(Fx s, std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_axpy: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += s * x[i];
  }
}

void fx_add(std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_add: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += x[i];
  }
}

void fx_clear(std::span<Fx> v) noexcept {
  for (Fx& e : v) {
    e = Fx{};
  }
}

}  // namespace mann::accel

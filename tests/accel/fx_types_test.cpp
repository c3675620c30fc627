#include "accel/fx_types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "numeric/random.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::accel {
namespace {

TEST(FxMatrix, ShapeAndAccess) {
  FxMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  m(1, 2) = Fx::from_float(1.5F);
  EXPECT_FLOAT_EQ(m(1, 2).to_float(), 1.5F);
}

TEST(FxMatrix, RowSpanAliases) {
  FxMatrix m(2, 2);
  auto row = m.row(1);
  row[0] = Fx::from_float(-2.0F);
  EXPECT_FLOAT_EQ(m(1, 0).to_float(), -2.0F);
}

TEST(Quantize, RoundTripWithinLsb) {
  numeric::Rng rng(3);
  numeric::Matrix m(4, 5);
  for (float& v : m.data()) {
    v = rng.uniform(-2.0F, 2.0F);
  }
  const FxMatrix q = quantize(m);
  const numeric::Matrix back = dequantize(q);
  const float lsb = 1.0F / 65536.0F;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), 0.5F * lsb + 1e-7F);
    }
  }
}

TEST(FxDot, MatchesFloatReference) {
  numeric::Rng rng(7);
  std::vector<float> fa(24);
  std::vector<float> fb(24);
  FxVector a(24);
  FxVector b(24);
  for (std::size_t i = 0; i < 24; ++i) {
    fa[i] = rng.uniform(-1.0F, 1.0F);
    fb[i] = rng.uniform(-1.0F, 1.0F);
    a[i] = Fx::from_float(fa[i]);
    b[i] = Fx::from_float(fb[i]);
  }
  const float ref = numeric::dot(fa, fb);
  EXPECT_NEAR(fx_dot(a, b).to_float(), ref, 24.0F * 3.0F / 65536.0F);
}

/// The datapath's dot product from its definition: each product rounded
/// half away from zero and saturated, then a sequential saturating
/// accumulate.
Fx reference_dot(const FxVector& a, const FxVector& b) {
  const auto saturate = [](std::int64_t v) {
    return static_cast<std::int32_t>(
        std::clamp<std::int64_t>(v, std::numeric_limits<std::int32_t>::min(),
                                 std::numeric_limits<std::int32_t>::max()));
  };
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t prod = std::int64_t{a[i].raw()} * b[i].raw();
    const std::int64_t rounded =
        prod >= 0 ? (prod + (1 << 15)) >> 16 : -((-prod + (1 << 15)) >> 16);
    acc = saturate(std::int64_t{acc} + saturate(rounded));
  }
  return Fx::from_raw(acc);
}

FxVector raw_vector(std::initializer_list<std::int32_t> raws) {
  FxVector v;
  for (const std::int32_t r : raws) {
    v.push_back(Fx::from_raw(r));
  }
  return v;
}

TEST(FxDot, SaturationEdgesMatchSequentialAccumulate) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  const std::int32_t one = Fx::kOne;
  const std::int32_t half = one / 2;
  const std::vector<std::pair<FxVector, FxVector>> cases = {
      {{}, {}},
      // Magnitudes summing to exactly INT32_MAX, and one LSB past it.
      {raw_vector({kMax - one, 1}), raw_vector({one, one})},
      {raw_vector({kMax, 1}), raw_vector({one, one})},
      // A prefix saturates high, then the tail pulls it back down: the
      // plain sum would differ from the saturating accumulate.
      {raw_vector({kMax, kMax, kMin}), raw_vector({one, one, one})},
      {raw_vector({kMin, kMin, kMax}), raw_vector({one, one, one})},
      // Products that saturate on their own.
      {raw_vector({kMax, kMin, kMin}), raw_vector({kMax, kMax, kMin})},
      // Exact half-LSB products round away from zero in both signs.
      {raw_vector({1, -1, 3, -3}), raw_vector({half, half, half, half})},
  };
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(fx_dot(a, b).raw(), reference_dot(a, b).raw());
  }
}

TEST(FxDot, RandomMagnitudesMatchSequentialAccumulate) {
  // Operand ranges from small (always the fast path) to large (prefixes
  // saturate), with mixed signs.
  numeric::Rng rng(17);
  for (const float range : {1.0F, 100.0F, 3000.0F, 32767.0F}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t n = 1 + rng.index(40);
      FxVector a(n);
      FxVector b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = Fx::from_float(rng.uniform(-range, range));
        b[i] = Fx::from_float(rng.uniform(-range, range));
      }
      ASSERT_EQ(fx_dot(a, b).raw(), reference_dot(a, b).raw())
          << "range " << range << " trial " << trial;
    }
  }
}

TEST(FxDot, LengthMismatchThrows) {
  FxVector a(3);
  FxVector b(2);
  EXPECT_THROW((void)fx_dot(a, b), std::invalid_argument);
}

TEST(FxAxpyAndAdd, Basics) {
  FxVector x = {Fx::from_float(1.0F), Fx::from_float(2.0F)};
  FxVector y = {Fx::from_float(10.0F), Fx::from_float(20.0F)};
  fx_axpy(Fx::from_float(0.5F), x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 10.5F);
  EXPECT_FLOAT_EQ(y[1].to_float(), 21.0F);
  fx_add(x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 11.5F);
  fx_clear(y);
  EXPECT_EQ(y[0], Fx{});
}

TEST(FxAxpy, MismatchThrows) {
  FxVector x(3);
  FxVector y(2);
  EXPECT_THROW(fx_axpy(Fx::from_float(1.0F), x, y), std::invalid_argument);
  EXPECT_THROW(fx_add(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace mann::accel

#include "numeric/kde.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "numeric/random.hpp"

namespace mann::numeric {
namespace {

TEST(KernelDensity, EmptyReturnsZero) {
  const KernelDensity kde(std::span<const float>{});
  EXPECT_TRUE(kde.empty());
  EXPECT_EQ(kde(0.0F), 0.0F);
}

TEST(KernelDensity, IntegratesToOne) {
  const std::vector<float> samples = {-1.0F, 0.0F, 0.5F, 2.0F, 2.5F};
  const KernelDensity kde(samples);
  // Trapezoidal integral over a wide window.
  double integral = 0.0;
  const float dx = 0.01F;
  for (float x = -10.0F; x < 12.0F; x += dx) {
    integral += static_cast<double>(kde(x)) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-2);
}

TEST(KernelDensity, PeaksNearSampleMass) {
  const std::vector<float> samples = {0.0F, 0.01F, -0.01F, 0.02F};
  const KernelDensity kde(samples);
  EXPECT_GT(kde(0.0F), kde(1.0F));
  EXPECT_GT(kde(0.0F), kde(-1.0F));
}

TEST(KernelDensity, ExplicitBandwidthIsUsed) {
  const std::vector<float> samples = {0.0F};
  const KernelDensity kde(samples, 2.0F);
  EXPECT_FLOAT_EQ(kde.bandwidth(), 2.0F);
  // Single sample with bandwidth h: density at center = 1/(h*sqrt(2*pi)).
  EXPECT_NEAR(kde(0.0F), 1.0F / (2.0F * std::sqrt(2.0F * 3.14159265F)),
              1e-4F);
}

TEST(KernelDensity, SilvermanBandwidthScalesWithSpread) {
  std::vector<float> narrow;
  std::vector<float> wide;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    narrow.push_back(rng.normal(0.0F, 0.1F));
    wide.push_back(rng.normal(0.0F, 3.0F));
  }
  const KernelDensity kn(narrow);
  const KernelDensity kw(wide);
  EXPECT_LT(kn.bandwidth(), kw.bandwidth());
}

TEST(KernelDensity, DegenerateConstantSamplesStillUsable) {
  const std::vector<float> samples(50, 1.5F);
  const KernelDensity kde(samples);
  EXPECT_GT(kde.bandwidth(), 0.0F);
  EXPECT_GT(kde(1.5F), kde(2.0F));
}

TEST(KernelDensity, RecoversGaussianShape) {
  Rng rng(13);
  std::vector<float> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(rng.normal(1.0F, 0.5F));
  }
  const KernelDensity kde(samples);
  // Compare against the true pdf at a few points.
  const auto pdf = [](float x) {
    const float s = 0.5F;
    const float u = (x - 1.0F) / s;
    return std::exp(-0.5F * u * u) /
           (s * std::sqrt(2.0F * 3.14159265F));
  };
  for (const float x : {0.0F, 0.5F, 1.0F, 1.5F, 2.0F}) {
    EXPECT_NEAR(kde(x), pdf(x), 0.05F) << "x=" << x;
  }
}

TEST(KernelDensity, HistogramFitApproximatesRawFit) {
  Rng rng(19);
  std::vector<float> samples;
  Histogram hist(-4.0F, 4.0F, 256);
  for (int i = 0; i < 5'000; ++i) {
    const float v = rng.normal(0.0F, 1.0F);
    samples.push_back(v);
    hist.add(v);
  }
  const KernelDensity raw(samples, 0.3F);
  const KernelDensity binned(hist, 0.3F);
  for (float x = -3.0F; x <= 3.0F; x += 0.5F) {
    EXPECT_NEAR(raw(x), binned(x), 0.01F) << "x=" << x;
  }
}

TEST(KernelDensity, NearestTermBoundsTheDensity) {
  Rng rng(23);
  std::vector<float> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(rng.normal(0.0F, 1.0F) + (i % 2 == 0 ? -3.0F : 3.0F));
  }
  for (const float bandwidth : {0.0F, 0.05F, 1.0F}) {
    const KernelDensity kde(samples, bandwidth);
    const auto n = static_cast<float>(kde.sample_count());
    for (float x = -12.0F; x <= 12.0F; x += 0.37F) {
      const float term = kde.nearest_term(x);
      EXPECT_LE(term, kde(x)) << "x=" << x;
      EXPECT_LE(kde(x), n * term * 1.001F) << "x=" << x;
    }
    // At a sample the nearest term is the kernel's peak.
    EXPECT_FLOAT_EQ(kde.nearest_term(samples[7]),
                    1.0F / (kde.bandwidth() * n *
                            std::sqrt(2.0F * std::numbers::pi_v<float>)));
  }
}

TEST(KernelDensity, NearestTermEdgeCases) {
  EXPECT_EQ(KernelDensity(std::span<const float>{}).nearest_term(1.0F), 0.0F);
  const std::vector<float> plain = {1.0F, 2.0F};
  EXPECT_TRUE(std::isnan(KernelDensity(plain).nearest_term(
      std::numeric_limits<float>::quiet_NaN())));
  const std::vector<float> with_nan = {
      1.0F, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(KernelDensity(with_nan, 0.5F).nearest_term(1.0F)));
  // Far from every sample the term underflows to 0, as does the density.
  EXPECT_EQ(KernelDensity(plain, 0.01F).nearest_term(100.0F), 0.0F);
  EXPECT_EQ(KernelDensity(plain, 0.01F)(100.0F), 0.0F);
}

}  // namespace
}  // namespace mann::numeric

#include "numeric/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mann::numeric {
namespace {

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.mean, 0.0F);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<float> v = {1.0F, 2.0F, 3.0F, 4.0F};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4U);
  EXPECT_FLOAT_EQ(s.mean, 2.5F);
  EXPECT_FLOAT_EQ(s.min, 1.0F);
  EXPECT_FLOAT_EQ(s.max, 4.0F);
  EXPECT_NEAR(s.stddev, 1.1180F, 1e-3F);
}

TEST(Stats, GeometricMean) {
  const std::vector<float> v = {1.0F, 4.0F, 16.0F};
  EXPECT_NEAR(geometric_mean(v), 4.0F, 1e-4F);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<float> v = {1.0F, 0.0F};
  EXPECT_EQ(geometric_mean(v), 0.0F);
  EXPECT_EQ(geometric_mean({}), 0.0F);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<float> v = {5.0F, 1.0F, 3.0F};
  EXPECT_FLOAT_EQ(percentile(v, 0.0F), 1.0F);
  EXPECT_FLOAT_EQ(percentile(v, 100.0F), 5.0F);
  EXPECT_FLOAT_EQ(percentile(v, 50.0F), 3.0F);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<float> v = {0.0F, 10.0F};
  EXPECT_FLOAT_EQ(percentile(v, 25.0F), 2.5F);
}

TEST(Stats, PercentileClampsP) {
  const std::vector<float> v = {1.0F, 2.0F};
  EXPECT_FLOAT_EQ(percentile(v, -5.0F), 1.0F);
  EXPECT_FLOAT_EQ(percentile(v, 200.0F), 2.0F);
}

TEST(Stats, PercentileEmptyThrows) {
  EXPECT_THROW((void)percentile({}, 50.0F), std::invalid_argument);
}

TEST(Stats, JainIndexNeedsTwoShares) {
  EXPECT_EQ(jain_index({}), 1.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(jain_index(one), 1.0);
}

TEST(Stats, JainIndexAllZerosIsFair) {
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_EQ(jain_index(zeros), 1.0);
}

TEST(Stats, JainIndexEqualSharesIsOne) {
  const std::vector<double> equal = {3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
}

TEST(Stats, JainIndexMonopolistIsOneOverN) {
  const std::vector<double> monopoly = {0.0, 12.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(monopoly), 0.25);
}

}  // namespace
}  // namespace mann::numeric

// Differential oracle for ITH calibration (Algorithm 1, Steps 2-3): the
// pruned ascending threshold search must return, bit for bit, what a
// brute-force scan of every observed logit returns, over a trained qa1
// model's populations and over seeded synthetic populations built to
// break the pruning bound (underflowed and denormal kernel terms, the
// bandwidth floor, duplicates and signed zeros, ±inf and NaN logits).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ith.hpp"
#include "data/dataset.hpp"
#include "model/trainer.hpp"
#include "numeric/kde.hpp"
#include "numeric/silhouette.hpp"

namespace mann::core {
namespace {

using Populations = std::vector<std::vector<float>>;

/// The brute-force Step 2: every observed logit z_i gets the full KDE
/// posterior, and θ_i is the smallest that reaches ρ (in HG_i-then-HG_ī
/// scan order, which decides between +0 and -0).
std::vector<float> brute_force_thresholds(const Populations& positive,
                                          const Populations& negative,
                                          const std::vector<float>& priors,
                                          const IthConfig& config) {
  std::vector<float> thresholds(positive.size(),
                                InferenceThresholding::kNoThreshold);
  for (std::size_t i = 0; i < positive.size(); ++i) {
    const auto& pos = positive[i];
    const auto& neg = negative[i];
    if (pos.size() < config.min_positive_samples || neg.empty() ||
        config.rho > 1.0F) {
      continue;
    }
    const numeric::KernelDensity pos_kde(pos, config.kde_bandwidth);
    const numeric::KernelDensity neg_kde(neg, config.kde_bandwidth);
    const float w_pos = config.use_priors ? priors[i] : 0.5F;
    const float w_neg = 1.0F - w_pos;
    const auto [neg_min_it, neg_max_it] =
        std::minmax_element(neg.begin(), neg.end());
    const float margin = config.support_sigmas * neg_kde.bandwidth();
    const float neg_lo = *neg_min_it - margin;
    const float neg_hi = *neg_max_it + margin;
    auto posterior_at = [&](float z) {
      const float p_pos = w_pos * pos_kde(z);
      const float p_neg =
          (z < neg_lo || z > neg_hi) ? 0.0F : w_neg * neg_kde(z);
      const float denom = p_pos + p_neg;
      return denom > 0.0F ? p_pos / denom : -1.0F;
    };
    float theta = InferenceThresholding::kNoThreshold;
    for (const std::vector<float>* samples : {&pos, &neg}) {
      for (const float z : *samples) {
        if (z < theta && posterior_at(z) >= config.rho) {
          theta = z;
        }
      }
    }
    thresholds[i] = theta;
  }
  return thresholds;
}

std::vector<std::uint32_t> bits(std::span<const float> values) {
  std::vector<std::uint32_t> out;
  out.reserve(values.size());
  for (const float v : values) {
    out.push_back(std::bit_cast<std::uint32_t>(v));
  }
  return out;
}

/// Checks one calibration against the oracle: thresholds bit-equal to
/// the brute force, silhouettes bit-equal to average_silhouette, the
/// probe order their stable descending sort, populations untouched.
void expect_matches_oracle(const InferenceThresholding& ith,
                           const Populations& positive,
                           const Populations& negative,
                           const std::vector<float>& priors,
                           const IthConfig& config) {
  const std::vector<float> expected =
      brute_force_thresholds(positive, negative, priors, config);
  ASSERT_EQ(bits(ith.thresholds()), bits(expected));

  const std::size_t classes = positive.size();
  std::vector<float> silhouettes(classes);
  for (std::size_t i = 0; i < classes; ++i) {
    silhouettes[i] = numeric::average_silhouette(positive[i], negative[i]);
    ASSERT_EQ(bits(ith.positive_samples(i)), bits(positive[i])) << i;
    ASSERT_EQ(bits(ith.negative_samples(i)), bits(negative[i])) << i;
  }
  ASSERT_EQ(bits(ith.silhouettes()), bits(silhouettes));
  std::vector<std::size_t> order(classes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return silhouettes[a] > silhouettes[b];
                   });
  ASSERT_EQ(ith.probe_order(), order);
  ASSERT_EQ(bits(ith.priors()), bits(priors));
}

TEST(IthThresholdOracle, TrainedQa1GridMatchesBruteForce) {
  data::DatasetConfig dc;
  dc.train_stories = 350;
  dc.test_stories = 10;
  dc.seed = 404;
  const data::TaskDataset dataset =
      data::build_task_dataset(data::TaskId::kSingleSupportingFact, dc);
  model::ModelConfig mc;
  mc.vocab_size = dataset.vocab_size();
  mc.embedding_dim = 16;
  mc.hops = 3;
  numeric::Rng rng(5);
  model::MemN2N model(mc, rng);
  model::TrainConfig tc;
  tc.epochs = 15;
  model::train(model, dataset.train, tc);

  // Step 1 as the paper states it, so calibrate() is checked against
  // populations it did not collect itself.
  const std::size_t classes = mc.vocab_size;
  Populations positive(classes);
  Populations negative(classes);
  std::vector<std::size_t> label_counts(classes, 0);
  for (const data::EncodedStory& story : dataset.train) {
    const auto label = static_cast<std::size_t>(story.answer);
    ++label_counts[label];
    const model::ForwardTrace trace = model.forward(story);
    if (trace.prediction != label) {
      continue;
    }
    for (std::size_t i = 0; i < classes; ++i) {
      (i == label ? positive : negative)[i].push_back(trace.logits[i]);
    }
  }
  std::vector<float> priors(classes);
  for (std::size_t i = 0; i < classes; ++i) {
    priors[i] = static_cast<float>(label_counts[i]) /
                static_cast<float>(dataset.train.size());
  }

  std::size_t finite_thresholds = 0;
  for (const float rho : {1.0F, 0.999F, 0.99F, 0.95F, 0.9F, 0.5F, 0.0F,
                          1.01F}) {
    for (const float bandwidth : {0.0F, 0.02F, 0.05F, 1.0F}) {
      for (const bool use_priors : {false, true}) {
        for (const float sigmas : {0.0F, 1.0F, 3.0F}) {
          IthConfig config;
          config.rho = rho;
          config.kde_bandwidth = bandwidth;
          config.use_priors = use_priors;
          config.support_sigmas = sigmas;
          SCOPED_TRACE(testing::Message()
                       << "rho=" << rho << " bw=" << bandwidth
                       << " priors=" << use_priors << " sigmas=" << sigmas);
          const InferenceThresholding ith =
              InferenceThresholding::calibrate(model, dataset.train, config);
          expect_matches_oracle(ith, positive, negative, priors, config);
          finite_thresholds += ith.active_classes();
        }
      }
    }
  }
  // The grid must exercise real thresholds, not only the +inf default.
  EXPECT_GT(finite_thresholds, 100U);
}

/// One seeded synthetic calibration problem.
struct SyntheticCase {
  Populations positive;
  Populations negative;
  std::vector<float> priors;
  IthConfig config;
};

/// Draws populations shaped to stress the pruning bound. `kind` picks
/// the shape; everything else comes from `rng`.
SyntheticCase make_case(std::mt19937_64& rng, int kind) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto uniform = [&rng](float lo, float hi) {
    return std::uniform_real_distribution<float>(lo, hi)(rng);
  };
  std::normal_distribution<float> normal(0.0F, 1.0F);

  constexpr float kRhos[] = {1.0F,  0.999F, 0.99F, 0.95F,
                             0.9F,  0.5F,   0.0F,  1.01F,
                             1.0F - 0x1p-24F, 1.0F - 0x1p-22F, 1e-6F};
  constexpr float kBandwidths[] = {0.0F, 0.02F, 0.05F, 1.0F, 1e-3F};
  constexpr float kSigmas[] = {0.0F, 1.0F, 3.0F};

  SyntheticCase c;
  c.config.rho = kRhos[below(std::size(kRhos))];
  c.config.kde_bandwidth = kBandwidths[below(std::size(kBandwidths))];
  c.config.use_priors = below(2) == 1;
  c.config.support_sigmas = kSigmas[below(std::size(kSigmas))];
  c.config.min_positive_samples = below(3) == 0 ? 1 : 5;
  // An explicit bandwidth sets the separation scale; Silverman's rule is
  // near 1 for unit-variance draws.
  const float h = c.config.kde_bandwidth > 0.0F ? c.config.kde_bandwidth
                                                : 1.0F;

  const std::size_t classes = 1 + below(3);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    std::vector<float> pos;
    std::vector<float> neg;
    const std::size_t n_pos = below(40);
    const std::size_t n_neg = 1 + below(60);
    switch (kind) {
      case 0: {  // overlapping Gaussians
        const float mu = uniform(-2.0F, 5.0F);
        for (std::size_t k = 0; k < n_neg; ++k) {
          neg.push_back(normal(rng));
        }
        for (std::size_t k = 0; k < n_pos; ++k) {
          pos.push_back(mu + uniform(0.2F, 1.5F) * normal(rng));
        }
        break;
      }
      case 1: {  // clusters 0..60 bandwidths apart: terms underflow to 0
                 // or to denormals
        const float gap = uniform(0.0F, 60.0F) * h;
        for (std::size_t k = 0; k < n_neg; ++k) {
          neg.push_back(0.3F * h * normal(rng));
        }
        for (std::size_t k = 0; k < n_pos; ++k) {
          pos.push_back(gap + 0.3F * h * normal(rng));
        }
        break;
      }
      case 2: {  // negatives on both sides of the positives: candidates
                 // inside the support whose negative term is tiny
        const float gap = uniform(4.0F, 20.0F) * h;
        for (std::size_t k = 0; k < n_neg; ++k) {
          neg.push_back((k % 2 == 0 ? -gap : gap) + 0.2F * h * normal(rng));
        }
        for (std::size_t k = 0; k < n_pos; ++k) {
          pos.push_back(uniform(-0.5F, 0.5F) * gap);
        }
        break;
      }
      case 3: {  // constant samples: Silverman's rule floors at 1e-3
        c.config.kde_bandwidth = 0.0F;
        const float at = uniform(-1.0F, 1.0F);
        const float step = static_cast<float>(below(12)) * 1e-3F;
        neg.assign(n_neg, at);
        pos.assign(n_pos, at + step);
        break;
      }
      case 4: {  // duplicates and both signed zeros, shuffled
        constexpr float kGrid[] = {-0.0F, 0.0F, -0.0F, 0.25F,
                                   -0.25F, 0.5F, 1.0F, 2.0F};
        for (std::size_t k = 0; k < n_neg; ++k) {
          neg.push_back(kGrid[below(std::size(kGrid))] - 0.5F);
        }
        for (std::size_t k = 0; k < n_pos; ++k) {
          pos.push_back(kGrid[below(std::size(kGrid))]);
        }
        break;
      }
      case 5: {  // one or two samples a side, ρ drawn from [0.5, 1): the
                 // bound is nearly tight, so a too-eager skip rule shows
        c.config.rho = uniform(0.5F, 1.0F);
        c.config.min_positive_samples = 1;
        const float gap = uniform(0.0F, 4.0F) * h;
        neg.assign(1 + below(2), 0.0F);
        neg.back() = 0.1F * h * normal(rng);
        pos.assign(1 + below(2), gap);
        pos.back() = gap + 0.1F * h * normal(rng);
        break;
      }
      default: {  // ±inf and NaN logits among ordinary ones
        constexpr float kInf = std::numeric_limits<float>::infinity();
        constexpr float kOdd[] = {kInf, -kInf,
                                  std::numeric_limits<float>::quiet_NaN()};
        for (std::size_t k = 0; k < n_neg; ++k) {
          neg.push_back(below(8) == 0 ? kOdd[below(3)] : normal(rng));
        }
        for (std::size_t k = 0; k < n_pos; ++k) {
          pos.push_back(below(8) == 0 ? kOdd[below(3)]
                                      : 2.0F + normal(rng));
        }
        break;
      }
    }
    c.positive.push_back(std::move(pos));
    c.negative.push_back(std::move(neg));
    const std::size_t prior_kind = below(4);
    c.priors.push_back(prior_kind == 0   ? 0.0F
                       : prior_kind == 1 ? 1.0F
                                         : uniform(0.0F, 1.0F));
  }
  return c;
}

TEST(IthThresholdOracle, SyntheticPopulationsMatchBruteForce) {
  constexpr int kKinds = 7;
  constexpr int kCases = 2100;
  std::mt19937_64 rng(2019);
  std::vector<std::size_t> finite_by_kind(kKinds, 0);
  for (int n = 0; n < kCases; ++n) {
    const int kind = n % kKinds;
    SyntheticCase c = make_case(rng, kind);
    SCOPED_TRACE(testing::Message()
                 << "case " << n << " kind " << kind << " rho="
                 << c.config.rho << " bw=" << c.config.kde_bandwidth
                 << " priors=" << c.config.use_priors
                 << " sigmas=" << c.config.support_sigmas);
    const InferenceThresholding ith = InferenceThresholding::from_populations(
        c.positive, c.negative, c.priors, c.config);
    expect_matches_oracle(ith, c.positive, c.negative, c.priors, c.config);
    finite_by_kind[static_cast<std::size_t>(kind)] += ith.active_classes();
  }
  // Every shape must produce finite thresholds somewhere, or the case
  // would only compare +inf with +inf.
  for (int kind = 0; kind < kKinds; ++kind) {
    EXPECT_GT(finite_by_kind[static_cast<std::size_t>(kind)], 10U)
        << "kind " << kind;
  }
}

TEST(IthThresholdOracle, FromPopulationsRejectsMismatchedSizes) {
  EXPECT_THROW((void)InferenceThresholding::from_populations(
                   Populations(2), Populations(1), {0.5F, 0.5F}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)InferenceThresholding::from_populations(
                   Populations(2), Populations(2), {0.5F}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mann::core

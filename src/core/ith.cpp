#include "core/ith.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <stdexcept>

#include "numeric/kde.hpp"
#include "numeric/silhouette.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::core {
namespace {

/// Step 2 for one class: θ = min{ z ∈ HG_i ∪ HG_ī : posterior(z) >= ρ },
/// kNoThreshold when no observed logit qualifies. `w_pos` weights the
/// positive density (the prior, or 0.5 for the likelihood ratio).
float search_threshold(std::span<const float> pos, std::span<const float> neg,
                       float w_pos, const IthConfig& config) {
  const numeric::KernelDensity pos_kde(pos, config.kde_bandwidth);
  const numeric::KernelDensity neg_kde(neg, config.kde_bandwidth);
  const float w_neg = 1.0F - w_pos;

  // Compact support of the negative population (histogram semantics):
  // outside it the negative likelihood is exactly zero and the
  // posterior saturates at 1, which is what lets ρ = 1.0 fire.
  const auto [neg_min_it, neg_max_it] =
      std::minmax_element(neg.begin(), neg.end());
  const float margin = config.support_sigmas * neg_kde.bandwidth();
  const float neg_lo = *neg_min_it - margin;
  const float neg_hi = *neg_max_it + margin;
  const auto outside_support = [&](float z) {
    return z < neg_lo || z > neg_hi;
  };

  // The candidate set is every observed z_i (HG_i and HG_ī): at ρ = 1
  // only the zero-negative-density zone qualifies; as ρ drops the
  // threshold descends into the class-overlap region, trading accuracy
  // for earlier exits (Fig. 3's x-axis).
  auto posterior_at = [&](float z) {
    const float p_pos = w_pos * pos_kde(z);
    const float p_neg = outside_support(z) ? 0.0F : w_neg * neg_kde(z);
    const float denom = p_pos + p_neg;
    return denom > 0.0F ? p_pos / denom : -1.0F;
  };

  // Walk the candidates in ascending order and stop at the first that
  // qualifies: it is the minimum. NaN never qualifies (it fails any
  // comparison). The sort is stable over HG_i then HG_ī, so of +0 and -0
  // (equal, different bits) the one listed first wins, as it would in a
  // min-scan over that order.
  std::vector<float> candidates;
  candidates.reserve(pos.size() + neg.size());
  for (const std::span<const float> samples : {pos, neg}) {
    std::copy_if(samples.begin(), samples.end(),
                 std::back_inserter(candidates),
                 [](float z) { return !std::isnan(z); });
  }
  std::stable_sort(candidates.begin(), candidates.end());

  // Inside the negative support a candidate is skipped, without the O(n)
  // posterior, when an O(log n) bound proves posterior < ρ. Invariant:
  // p_neg_lo <= p_neg and p_pos <= p_pos_hi as posterior_at computes
  // them in float. p_neg_lo is the nearest negative's kernel term (every
  // term is >= 0, so the float sum is at least any one of them);
  // p_pos_hi is n_pos times the nearest positive's term, doubled for
  // rounding (n_pos < 2^22), plus one denormal ulp per term and one more
  // so an underflowed term still bounds. p_neg > r * p_pos with
  // r = 2(1/ρ - 1) puts the posterior below ρ/(2 - ρ) with room for the
  // division's rounding; the 2^-20 floor keeps it below 1 at ρ = 1. Only
  // a normal p_neg_lo is trusted; a NaN bound never skips.
  const bool may_skip = config.rho > 0.0F && w_pos >= 0.0F &&
                        w_neg >= 0.0F && pos.size() < (std::size_t{1} << 22);
  const double r = std::max(2.0 * (1.0 / config.rho - 1.0), 0x1p-20);
  const double n_pos = static_cast<double>(pos_kde.sample_count());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const float z = candidates[k];
    if (k > 0 && z == candidates[k - 1]) {
      continue;  // same posterior as the candidate just rejected
    }
    if (may_skip && !outside_support(z)) {
      const float p_neg_lo = w_neg * neg_kde.nearest_term(z);
      const double p_pos_hi =
          2.0 * n_pos * w_pos * (pos_kde.nearest_term(z) + 0x1p-149) +
          0x1p-149;
      if (std::isnormal(p_neg_lo) && p_neg_lo > r * p_pos_hi) {
        continue;
      }
    }
    if (posterior_at(z) >= config.rho) {
      return z;
    }
  }
  return InferenceThresholding::kNoThreshold;
}

}  // namespace

InferenceThresholding InferenceThresholding::calibrate(
    const model::MemN2N& model, std::span<const data::EncodedStory> training,
    const IthConfig& config) {
  const std::size_t classes = model.config().vocab_size;
  std::vector<std::vector<float>> positive(classes);
  std::vector<std::vector<float>> negative(classes);
  std::vector<float> priors(classes, 0.0F);

  // Step 1: collect logit populations from correctly-predicted examples.
  std::vector<std::size_t> label_counts(classes, 0);
  std::size_t labelled = 0;
  for (const data::EncodedStory& story : training) {
    const auto label = static_cast<std::size_t>(story.answer);
    ++label_counts[label];
    ++labelled;
    const model::ForwardTrace trace = model.forward(story);
    if (trace.prediction != label) {
      continue;
    }
    for (std::size_t i = 0; i < classes; ++i) {
      if (i == label) {
        positive[i].push_back(trace.logits[i]);
      } else {
        negative[i].push_back(trace.logits[i]);
      }
    }
  }
  if (labelled > 0) {
    for (std::size_t i = 0; i < classes; ++i) {
      priors[i] = static_cast<float>(label_counts[i]) /
                  static_cast<float>(labelled);
    }
  }
  return from_populations(std::move(positive), std::move(negative),
                          std::move(priors), config);
}

InferenceThresholding InferenceThresholding::from_populations(
    std::vector<std::vector<float>> positive,
    std::vector<std::vector<float>> negative, std::vector<float> priors,
    const IthConfig& config) {
  const std::size_t classes = positive.size();
  if (negative.size() != classes || priors.size() != classes) {
    throw std::invalid_argument(
        "InferenceThresholding::from_populations: positive, negative and "
        "priors must hold one entry per class");
  }
  InferenceThresholding ith;
  ith.config_ = config;
  ith.thresholds_.assign(classes, kNoThreshold);
  ith.silhouettes_.assign(classes, 0.0F);
  ith.priors_ = std::move(priors);
  ith.positive_ = std::move(positive);
  ith.negative_ = std::move(negative);

  // Step 2: per-class threshold θ_i = min{ z ∈ HG_i ∪ HG_ī : p(y=i | z) >= ρ }
  // (Eq. 8). The posterior is the two-hypothesis Bayes ratio over the
  // KDE-fitted class-conditional densities weighted by the priors;
  // search_threshold walks the observed logits in ascending order.
  for (std::size_t i = 0; i < classes; ++i) {
    const auto& pos = ith.positive_[i];
    const auto& neg = ith.negative_[i];
    if (pos.size() < config.min_positive_samples || neg.empty() ||
        config.rho > 1.0F) {
      continue;
    }
    const float w_pos = config.use_priors ? ith.priors_[i] : 0.5F;
    ith.thresholds_[i] = search_threshold(pos, neg, w_pos, config);
  }

  // Step 3: probe order by descending silhouette coefficient of HG_i
  // against HG_ī.
  for (std::size_t i = 0; i < classes; ++i) {
    ith.silhouettes_[i] =
        numeric::average_silhouette(ith.positive_[i], ith.negative_[i]);
  }
  ith.order_.resize(classes);
  std::iota(ith.order_.begin(), ith.order_.end(), std::size_t{0});
  std::stable_sort(ith.order_.begin(), ith.order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ith.silhouettes_[a] > ith.silhouettes_[b];
                   });
  return ith;
}

std::size_t InferenceThresholding::active_classes() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(thresholds_.begin(), thresholds_.end(),
                    [](float t) { return t != kNoThreshold; }));
}

ThresholdedResult InferenceThresholding::predict_from_features(
    const model::MemN2N& model, std::span<const float> features,
    bool use_index_ordering) const {
  const numeric::Matrix& w_o = model.params().w_o;
  const std::size_t classes = w_o.rows();
  ThresholdedResult result;

  // Step 4: probe classes; each probe is one dot product + one compare,
  // mirroring the OUTPUT module's sequential datapath.
  std::vector<float> logits(classes, 0.0F);
  for (std::size_t rank = 0; rank < classes; ++rank) {
    const std::size_t cls = use_index_ordering ? order_[rank] : rank;
    logits[cls] = numeric::dot(w_o.row(cls), features);
    ++result.comparisons;
    if (logits[cls] > thresholds_[cls]) {
      result.prediction = cls;
      result.early_exit = true;
      return result;
    }
  }
  // Fallback: full argmax (every logit has been computed by now).
  result.prediction = numeric::argmax(logits);
  return result;
}

ThresholdedResult InferenceThresholding::predict(
    const model::MemN2N& model, const data::EncodedStory& story,
    bool use_index_ordering) const {
  const std::vector<float> features = model.forward_features(story);
  return predict_from_features(model, features, use_index_ordering);
}

}  // namespace mann::core

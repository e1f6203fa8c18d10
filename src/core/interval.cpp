#include "core/interval.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace vlm::core {

IntervalEstimator::IntervalEstimator(std::uint32_t s, double z)
    : estimator_(s), s_(s), z_(z) {
  VLM_REQUIRE(z > 0.0, "interval width multiplier must be positive");
}

EstimateInterval IntervalEstimator::estimate(const RsuState& x,
                                             const RsuState& y,
                                             PairEstimate* point) const {
  const common::JointZeroCounts counts =
      common::joint_zero_counts(x.bits(), y.bits());
  const SizeFactors factors(s_, counts.size_small, counts.size_large);
  const PairEstimate pair = estimator_.from_counts(counts, factors);
  if (point != nullptr) *point = pair;
  // The counts are in size order (the smaller array first, the first
  // operand on ties); the counters must follow the same order.
  const bool x_is_small = x.array_size() <= y.array_size();
  const RsuState& small = x_is_small ? x : y;
  const RsuState& large = x_is_small ? y : x;
  return annotate(pair.n_c_hat, pair.saturated,
                  static_cast<double>(small.counter()),
                  static_cast<double>(large.counter()), factors);
}

EstimateInterval IntervalEstimator::annotate(const PairEstimate& estimate,
                                             double n_x, double n_y) const {
  return annotate(estimate.n_c_hat, estimate.saturated, n_x, n_y,
                  SizeFactors(s_, estimate.m_x, estimate.m_y));
}

EstimateInterval IntervalEstimator::annotate(double n_c_hat, bool saturated,
                                             double n_x, double n_y,
                                             const SizeFactors& factors) const {
  VLM_REQUIRE(n_x >= 0.0 && n_y >= 0.0, "counters must be non-negative");
  EstimateInterval out;
  out.n_c_hat = n_c_hat;
  out.degraded = degraded(n_c_hat, saturated, n_x, n_y);
  const double max_nc = std::min(n_x, n_y);
  if (max_nc < 1.0) {
    // An idle RSU: nothing to intersect, interval is [0, 0].
    return out;
  }
  // The variance model needs a positive n_c inside its support: below ~1
  // vehicle the estimate carries no information, so evaluate at 1, and
  // past min(n_x, n_y) noise pushed it out, so evaluate at the support.
  const double eval_nc = std::clamp(n_c_hat, 1.0, max_nc);
  const PairScenario scenario{std::max(n_x, eval_nc), std::max(n_y, eval_nc),
                              eval_nc, factors.m_x, factors.m_y, s_};
  const AccuracyPrediction pred = AccuracyModel::predict(
      scenario, factors, VarianceModel::kOccupancyExact);
  out.stddev = pred.stddev_ratio * eval_nc;
  out.floor_stddev = std::sqrt(eval_nc * (static_cast<double>(s_) - 1.0));
  out.lower = std::max(0.0, n_c_hat - z_ * out.stddev);
  out.upper = n_c_hat + z_ * out.stddev;
  return out;
}

}  // namespace vlm::core

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
  return from_counts(counts, x, y,
                     SizeFactors(s_, counts.size_small, counts.size_large),
                     point);
}

EstimateInterval IntervalEstimator::from_counts(
    const common::JointZeroCounts& counts, const RsuState& x,
    const RsuState& y, const SizeFactors& factors, PairEstimate* point) const {
  const PairEstimate pair = estimator_.from_counts(counts, factors);
  if (point != nullptr) *point = pair;
  // The counts are in size order (the smaller array first, the first
  // operand on ties); the counters must follow the same order.
  const bool x_is_small = x.array_size() <= y.array_size();
  const RsuState& small = x_is_small ? x : y;
  const RsuState& large = x_is_small ? y : x;
  EstimateInterval out =
      annotate(pair, static_cast<double>(small.counter()),
               static_cast<double>(large.counter()), factors);
  out.degraded = out.degraded || pair.saturated;
  return out;
}

EstimateInterval IntervalEstimator::annotate(const PairEstimate& estimate,
                                             double n_x, double n_y) const {
  return annotate(estimate, n_x, n_y,
                  SizeFactors(s_, estimate.m_x, estimate.m_y));
}

EstimateInterval IntervalEstimator::annotate(const PairEstimate& estimate,
                                             double n_x, double n_y,
                                             const SizeFactors& factors) const {
  VLM_REQUIRE(n_x >= 0.0 && n_y >= 0.0, "counters must be non-negative");
  EstimateInterval out;
  out.n_c_hat = estimate.n_c_hat;
  out.degraded = estimate.saturated;

  // The variance model needs a positive n_c; below ~1 vehicle the
  // estimate carries no information, so evaluate at 1 and flag it.
  double eval_nc = estimate.n_c_hat;
  const double max_nc = std::min(n_x, n_y);
  if (eval_nc < 1.0) {
    eval_nc = std::min(1.0, max_nc);
    out.degraded = true;
  }
  if (eval_nc > max_nc) {
    eval_nc = max_nc;  // noise pushed the estimate past its support
    out.degraded = true;
  }
  if (max_nc < 1.0) {
    // An idle RSU: nothing to intersect, interval is [0, 0].
    return out;
  }

  const PairScenario scenario{std::max(n_x, eval_nc), std::max(n_y, eval_nc),
                              eval_nc, estimate.m_x, estimate.m_y, s_};
  const AccuracyPrediction pred = AccuracyModel::predict(
      scenario, factors, VarianceModel::kOccupancyExact);
  out.stddev = pred.stddev_ratio * eval_nc;
  out.floor_stddev = std::sqrt(eval_nc * (static_cast<double>(s_) - 1.0));
  out.lower = std::max(0.0, estimate.n_c_hat - z_ * out.stddev);
  out.upper = estimate.n_c_hat + z_ * out.stddev;
  return out;
}

}  // namespace vlm::core

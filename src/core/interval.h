// Confidence intervals for pair estimates.
//
// The paper reports point estimates only; a deployment needs to know how
// much to trust them. Given the two RSU states and a point estimate, we
// evaluate the occupancy-exact accuracy model at the estimated
// intersection to obtain the sampling standard deviation, and report a
// normal-approximation interval plus the slot-randomness floor
// sqrt(n_c (s-1)) (the component no array size can remove).
#pragma once

#include <cstdint>

#include "core/accuracy_model.h"
#include "core/estimator.h"
#include "core/rsu_state.h"

namespace vlm::core {

struct EstimateInterval {
  double n_c_hat = 0.0;   // point estimate (clamped to >= 0)
  double stddev = 0.0;    // predicted StdDev[n̂_c] at the estimate
  double lower = 0.0;     // max(0, n̂_c − z·stddev)
  double upper = 0.0;     // n̂_c + z·stddev
  double floor_stddev = 0.0;  // sqrt(n̂_c (s−1)): slot-randomness floor
  // True when the interval is unreliable: a saturated array, or an
  // estimate so small that the model was evaluated at the floor value.
  bool degraded = false;
};

class IntervalEstimator {
 public:
  // `z` is the normal quantile for the desired coverage (1.96 ~ 95%).
  explicit IntervalEstimator(std::uint32_t s, double z = 1.96);

  // Point estimate + interval in one pass. Counters must be consistent
  // with the arrays (enforced by RsuState). When `point` is non-null the
  // underlying pair estimate is written there as well (the decode
  // pipeline reads its kernel counters for throughput accounting).
  // Symmetric for unequal array sizes: estimate(x, y) and estimate(y, x)
  // are bit-identical. On a size tie the first operand plays the smaller
  // array, as in common::joint_zero_counts.
  EstimateInterval estimate(const RsuState& x, const RsuState& y,
                            PairEstimate* point = nullptr) const;

  // Same as `estimate`, starting from the zero counts the batch decode
  // has already measured on (x, y), and the size-only model terms built
  // for (s, counts.size_small, counts.size_large); throws if they were
  // built for another size pair. Bit-identical to `estimate(x, y, point)`.
  EstimateInterval from_counts(const common::JointZeroCounts& counts,
                               const RsuState& x, const RsuState& y,
                               const SizeFactors& factors,
                               PairEstimate* point = nullptr) const;

  // Annotates an existing estimate. `n_x`/`n_y` are the counters of the
  // RSUs holding the smaller (estimate.m_x) and the larger (estimate.m_y)
  // array, in that order: the variance model is not symmetric in them.
  EstimateInterval annotate(const PairEstimate& estimate, double n_x,
                            double n_y) const;

 private:
  EstimateInterval annotate(const PairEstimate& estimate, double n_x,
                            double n_y, const SizeFactors& factors) const;

  PairEstimator estimator_;
  std::uint32_t s_;
  double z_;
};

}  // namespace vlm::core

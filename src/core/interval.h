// Confidence intervals for pair estimates.
//
// The paper reports point estimates only; a deployment needs to know how
// much to trust them. Given the two RSU states and a point estimate, we
// evaluate the occupancy-exact accuracy model at the estimated
// intersection to obtain the sampling standard deviation, and report a
// normal-approximation interval plus the slot-randomness floor
// sqrt(n_c (s-1)) (the component no array size can remove).
#pragma once

#include <algorithm>
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
  // True when the interval is unreliable: IntervalEstimator::degraded.
  bool degraded = false;
};

class IntervalEstimator {
 public:
  // `z` is the normal quantile for the desired coverage (1.96 ~ 95%).
  explicit IntervalEstimator(std::uint32_t s, double z = 1.96);

  std::uint32_t s() const { return s_; }

  // The one rule for an unreliable interval: a saturated array, an
  // estimate below one vehicle (the model is then evaluated at the
  // floor), or one past its support min(n_x, n_y). `annotate` flags
  // exactly these cells, and the OD-matrix walk reads this rule without
  // running the variance model.
  static bool degraded(double n_c_hat, bool saturated, double n_x,
                       double n_y) {
    return saturated || n_c_hat < 1.0 || n_c_hat > std::min(n_x, n_y);
  }

  // Point estimate + interval in one pass. Counters must be consistent
  // with the arrays (enforced by RsuState). When `point` is non-null the
  // underlying pair estimate is written there as well.
  // Symmetric for unequal array sizes: estimate(x, y) and estimate(y, x)
  // are bit-identical. On a size tie the first operand plays the smaller
  // array, as in common::joint_zero_counts.
  EstimateInterval estimate(const RsuState& x, const RsuState& y,
                            PairEstimate* point = nullptr) const;

  // Annotates an existing estimate. `n_x`/`n_y` are the counters of the
  // RSUs holding the smaller (estimate.m_x) and the larger (estimate.m_y)
  // array, in that order: the variance model is not symmetric in them.
  EstimateInterval annotate(const PairEstimate& estimate, double n_x,
                            double n_y) const;

  // Same, from the point estimate and its saturation flag, with the
  // size-only model terms already built for (s, m_x, m_y) — the K-RSU
  // decode builds one SizeFactors per size pair. Throws if they were
  // built for another s. Bit-identical to the overload above.
  EstimateInterval annotate(double n_c_hat, bool saturated, double n_x,
                            double n_y, const SizeFactors& factors) const;

 private:
  PairEstimator estimator_;
  std::uint32_t s_;
  double z_;
};

}  // namespace vlm::core

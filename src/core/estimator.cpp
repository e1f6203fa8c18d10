#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/require.h"

namespace vlm::core {

PairEstimator::PairEstimator(std::uint32_t s) : s_(s) {
  VLM_REQUIRE(s >= 2, "estimator requires s >= 2");
}

void PairEstimator::check_larger_size(std::size_t m_y) const {
  VLM_REQUIRE(m_y > 1, "larger array must have more than one bit");
  VLM_REQUIRE(static_cast<std::size_t>(s_) < m_y,
              "Eq. 5 requires s < m_y (otherwise the MLE degenerates)");
}

double PairEstimator::log_ratio_denominator(std::size_t m_y) const {
  check_larger_size(m_y);
  const double my = static_cast<double>(m_y);
  const double s = static_cast<double>(s_);
  return common::log_one_minus((s - 1.0) / (s * my)) -
         common::log_one_minus(1.0 / my);
}

PairEstimate PairEstimator::estimate(const RsuState& x,
                                     const RsuState& y) const {
  // The fused kernel orders the operands itself, never materializes the
  // unfolded array, and returns the three zero counts Eq. 5 needs in a
  // single pass over the larger array.
  return from_counts(common::joint_zero_counts(x.bits(), y.bits()));
}

PairEstimate PairEstimator::from_counts(
    const common::JointZeroCounts& counts) const {
  return from_counts_over(counts, log_ratio_denominator(counts.size_large));
}

PairEstimate PairEstimator::from_counts(const common::JointZeroCounts& counts,
                                        const SizeFactors& factors) const {
  VLM_REQUIRE(factors.s == s_ && factors.m_x == counts.size_small &&
                  factors.m_y == counts.size_large,
              "size factors were built for another (s, m_x, m_y)");
  return from_counts_over(counts, factors.L);
}

PairEstimate PairEstimator::from_counts_over(
    const common::JointZeroCounts& counts, double denominator) const {
  const std::size_t m_x = counts.size_small;
  const std::size_t m_y = counts.size_large;
  check_larger_size(m_y);

  PairEstimate out;
  out.m_x = m_x;
  out.m_y = m_y;
  out.words_scanned = counts.words_scanned;
  out.v_x = zero_fraction(counts.zeros_small, m_x);
  out.v_y = zero_fraction(counts.zeros_large, m_y);
  out.v_c = zero_fraction(counts.zeros_or, m_y);
  out.saturated = counts.zeros_small == 0 || counts.zeros_large == 0 ||
                  counts.zeros_or == 0;
  out.raw = eq5(std::log(out.v_c), std::log(out.v_x), std::log(out.v_y),
                denominator);
  out.n_c_hat = std::max(0.0, out.raw);
  return out;
}

}  // namespace vlm::core

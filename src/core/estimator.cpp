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
  return eq5(counts, log_ratio_denominator(counts.size_large));
}

PairEstimate PairEstimator::from_counts(const common::JointZeroCounts& counts,
                                        const SizeFactors& factors) const {
  VLM_REQUIRE(factors.s == s_ && factors.m_x == counts.size_small &&
                  factors.m_y == counts.size_large,
              "size factors were built for another (s, m_x, m_y)");
  return eq5(counts, factors.L);
}

PairEstimate PairEstimator::eq5(const common::JointZeroCounts& counts,
                                double denominator) const {
  const std::size_t m_x = counts.size_small;
  const std::size_t m_y = counts.size_large;
  check_larger_size(m_y);

  PairEstimate out;
  out.m_x = m_x;
  out.m_y = m_y;
  out.words_scanned = counts.words_scanned;

  // Floor zero counts at half a bit so a fully saturated array yields a
  // finite (if unreliable) estimate instead of -inf logs; flag it.
  auto fraction = [&](std::size_t zeros, std::size_t size, bool& saturated) {
    if (zeros == 0) {
      saturated = true;
      return 0.5 / static_cast<double>(size);
    }
    return static_cast<double>(zeros) / static_cast<double>(size);
  };
  out.v_x = fraction(counts.zeros_small, m_x, out.saturated);
  out.v_y = fraction(counts.zeros_large, m_y, out.saturated);
  out.v_c = fraction(counts.zeros_or, m_y, out.saturated);

  const double numerator =
      std::log(out.v_c) - std::log(out.v_x) - std::log(out.v_y);
  out.raw = numerator / denominator;
  out.n_c_hat = std::max(0.0, out.raw);
  return out;
}

}  // namespace vlm::core

// Offline decoding phase (Section IV-C): unfold, OR, and the MLE
// estimator of Eq. 5.
//
// Given two RSU reports (counter + bit array, sizes m_x <= m_y, both
// powers of two), the central server:
//   1. unfolds the smaller array to m_y bits (Eq. 3),
//   2. ORs the unfolded array with the larger one (Eq. 4),
//   3. reads the zero fractions V_x, V_y, V_c and computes
//        n̂_c = [ln V_c − ln V_x − ln V_y]
//             / [ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)].
// Total server cost per pair is O(m_y) — the claim of Section IV-E.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/accuracy_model.h"
#include "core/rsu_state.h"

namespace vlm::core {

struct PairEstimate {
  double n_c_hat = 0.0;  // MLE estimate, clamped to >= 0
  double raw = 0.0;      // unclamped MLE value (can be slightly negative)
  double v_x = 0.0;      // zero fraction of the smaller array
  double v_y = 0.0;      // zero fraction of the larger array
  double v_c = 0.0;      // zero fraction of the combined array
  std::size_t m_x = 0;   // smaller array size (after ordering)
  std::size_t m_y = 0;   // larger array size
  std::size_t words_scanned = 0;  // 64-bit words the decode kernel touched
  // True when any array had zero '0' bits: the MLE is then undefined and
  // the zero count was floored at 0.5 bits to produce a (low-quality)
  // estimate. Callers should treat such estimates as "array saturated —
  // enlarge m" rather than as measurements.
  bool saturated = false;
};

class PairEstimator {
 public:
  // `s` is the logical-bit-array size used by the encoder (>= 2).
  explicit PairEstimator(std::uint32_t s);

  std::uint32_t s() const { return s_; }

  // Estimates |S_x ∩ S_y| from two end-of-period RSU states, accepting
  // them in either order (smaller-first or larger-first). Array sizes
  // must be powers of two (guaranteed by RsuState; incompatible raw
  // sizes throw with a sizing hint). The smaller array is logically
  // unfolded onto the larger via the fused zero-count kernel — no copy
  // of either array is materialized.
  PairEstimate estimate(const RsuState& x, const RsuState& y) const;

  // Eq. 5 on already-measured zero counts. `estimate` above is exactly
  // joint_zero_counts + this. The arithmetic is zero_fraction and eq5
  // below, which the K-RSU decode calls with its per-RSU logs, so a
  // decoded matrix cell and the per-pair estimate have the same bits.
  PairEstimate from_counts(const common::JointZeroCounts& counts) const;

  // Same, reading the Eq. 5 denominator off size factors already built
  // for this estimator's s and the counts' sizes (the K-RSU decode
  // builds them once per size pair); throws if they were built for
  // another (s, m_x, m_y). Bit-identical to the overload above.
  PairEstimate from_counts(const common::JointZeroCounts& counts,
                           const SizeFactors& factors) const;

  // The denominator constant of Eq. 5 for a given larger-array size.
  // Positive for every s >= 2, m_y > 1.
  double log_ratio_denominator(std::size_t m_y) const;

  // An array's zero fraction as Eq. 5 reads it: zeros / size, floored at
  // half a bit when no zero is left (the array is saturated, the MLE is
  // undefined, and the floor keeps its logs finite).
  static double zero_fraction(std::size_t zeros, std::size_t size) {
    return zeros == 0 ? 0.5 / static_cast<double>(size)
                      : static_cast<double>(zeros) / static_cast<double>(size);
  }

  // Eq. 5 itself: the unclamped MLE from ln V_c and the two per-array
  // logs ln V_x and ln V_y, over the size pair's denominator. Each
  // per-array log depends on one array only, so the K-RSU decode takes
  // it once per RSU; the per-pair path takes the same logs of the same
  // fractions, so both paths give the same bits.
  static double eq5(double log_v_c, double log_v_x, double log_v_y,
                    double denominator) {
    return (log_v_c - log_v_x - log_v_y) / denominator;
  }

 private:
  void check_larger_size(std::size_t m_y) const;
  PairEstimate from_counts_over(const common::JointZeroCounts& counts,
                                double denominator) const;

  std::uint32_t s_;
};

}  // namespace vlm::core

// Closed-form accuracy analysis of the MLE estimator (paper Section V),
// in two flavors.
//
// kPaperBinomial implements Eqs. 9-36 exactly as published: zero counts
// are treated as binomial (independent bits) and the covariance terms of
// Eq. 35 collapse to a negligible delta-product under the paper's Taylor
// truncation.
//
// kOccupancyExact replaces both approximations with the true
// balls-into-bins second moments: every pairwise joint zero-probability
// of (B_c, B_x, B_y) bits is computed from per-vehicle factors, which
// captures (a) the negative correlation among bits of one array (each
// vehicle sets exactly one bit) and (b) the strong positive correlation
// between V_c and V_x, V_y (B_c is built from them). The two effects
// cancel most of the naive variance: at load factor ~13 the paper's
// formula over-predicts the estimator's standard deviation by roughly an
// order of magnitude, which Monte-Carlo simulation (bench_accuracy_model,
// E7) confirms. EXPERIMENTS.md discusses the discrepancy; tests tolerance
// bands use the exact model.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vlm::core {

struct PairScenario {
  double n_x = 0.0;   // point volume at the smaller-array RSU
  double n_y = 0.0;   // point volume at the larger-array RSU
  double n_c = 0.0;   // common volume (0 < n_c <= min(n_x, n_y))
  std::size_t m_x = 0;  // bit array sizes, powers of two, m_x | m_y
  std::size_t m_y = 0;
  std::uint32_t s = 2;  // logical bit array size
};

enum class VarianceModel {
  kPaperBinomial,   // the published Section V formulas
  kOccupancyExact,  // corrected balls-into-bins second moments
};

struct AccuracyPrediction {
  double q_nx = 0.0;  // Eq. 10: P[bit of B_x stays 0]
  double q_ny = 0.0;  // Eq. 11
  double q_nc = 0.0;  // Eq. 9:  P[bit of B_c stays 0]
  double expected_estimate = 0.0;  // Eq. 32: E[n̂_c]
  double bias_ratio = 0.0;         // Eq. 33: E[n̂_c/n_c] − 1
  double variance = 0.0;           // Eq. 34: Var[n̂_c]
  double stddev_ratio = 0.0;       // Eq. 36: StdDev[n̂_c/n_c]
};

// Every term of the model and of Eq. 5 that depends only on the array
// sizes and s: the occupancy log factors, ln(1 − 1/m) of each array
// (what q(n) = (1 − 1/m)^n exponentiates), and the Eq. 5 denominator L.
// A K-RSU decode has at most ~log²(m) distinct size pairs, so it builds
// one of these per size pair instead of re-deriving ~16 logs per pair.
// Pure arithmetic, no validation: the consumers validate their inputs.
struct SizeFactors {
  SizeFactors(std::uint32_t s, std::size_t m_x, std::size_t m_y);

  std::uint32_t s;
  std::size_t m_x;  // smaller array
  std::size_t m_y;  // larger array
  double lx1, lx2;  // ln(1 − A), ln(1 − 2A) with A = 1/m_x
  double ly1, ly2;  // ln(1 − B), ln(1 − 2B) with B = 1/m_y
  double lc1;       // ln P[one common vehicle leaves a B_c bit 0] (Eq. 6)
  double lprot2;    // ln(1 − 2wB), w = (s − 1)/s
  double l_cx_off;  // common-class factor of the Cov(C_i, X_j) joint
  double l_cy_diff;  // common-class factor of the Cov(C_i, Y_j) joint
  double l_xy_same;  // common-class factors of the Cov(X_j, Y_i) joints
  double l_xy_diff;
  double L;  // Eq. 5 denominator: ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)
};

class AccuracyModel {
 public:
  // Validates the scenario (array sizes powers of two with m_x | m_y,
  // volumes consistent, s >= 2) and throws std::invalid_argument if it is
  // malformed. If the caller passes m_x > m_y the roles are swapped, as
  // the decoding phase itself does.
  static AccuracyPrediction predict(
      const PairScenario& scenario,
      VarianceModel model = VarianceModel::kOccupancyExact);

  // Same, with the size-only terms already built for the scenario's
  // (s, m_x, m_y) after the swap above; throws if they were built for
  // another size pair. Bit-identical to the overload above.
  static AccuracyPrediction predict(const PairScenario& scenario,
                                    const SizeFactors& factors,
                                    VarianceModel model);

  // Individual pieces, exposed for tests and for the privacy model.
  static double q_point(double n, std::size_t m);  // (1 − 1/m)^n
  static double q_combined(const PairScenario& s);  // Eq. 9
};

}  // namespace vlm::core

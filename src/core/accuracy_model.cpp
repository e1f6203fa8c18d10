#include "core/accuracy_model.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/require.h"

namespace vlm::core {

namespace {

PairScenario normalized(PairScenario s) {
  if (s.m_x > s.m_y) {
    std::swap(s.m_x, s.m_y);
    std::swap(s.n_x, s.n_y);
  }
  VLM_REQUIRE(common::is_power_of_two(s.m_x) && common::is_power_of_two(s.m_y),
              "array sizes must be powers of two");
  VLM_REQUIRE(s.m_x >= 4, "arrays need at least four bits");
  VLM_REQUIRE(s.s >= 2, "s must be >= 2");
  VLM_REQUIRE(static_cast<std::size_t>(s.s) < s.m_y, "Eq. 5 requires s < m_y");
  VLM_REQUIRE(s.n_x >= 0.0 && s.n_y >= 0.0, "volumes must be non-negative");
  VLM_REQUIRE(s.n_c > 0.0 && s.n_c <= std::min(s.n_x, s.n_y),
              "common volume must satisfy 0 < n_c <= min(n_x, n_y)");
  return s;
}

// ----- occupancy-exact machinery -------------------------------------------
//
// Every second moment of (U_c, U_x, U_y) reduces to pairwise joint
// zero-probabilities of bit positions, and each of those is a product of
// per-vehicle-class factors (common / x-only / y-only). We carry the log
// of each factor and evaluate ratios J/(q_a q_b) via expm1 so the tiny
// correlation corrections survive in double precision.

struct ClassLogFactors {
  double common = 0.0;
  double x_only = 0.0;
  double y_only = 0.0;
};

double ln_event(const PairScenario& sc, const ClassLogFactors& f) {
  return sc.n_c * f.common + (sc.n_x - sc.n_c) * f.x_only +
         (sc.n_y - sc.n_c) * f.y_only;
}

struct LogSecondMoments {
  double var_ln_x, var_ln_y, var_ln_c;
  double cov_ln_cx, cov_ln_cy, cov_ln_xy;
};

LogSecondMoments occupancy_moments(const PairScenario& sc,
                                   const SizeFactors& f, double q_x,
                                   double q_y, double q_c) {
  const double mx = static_cast<double>(sc.m_x);
  const double my = static_cast<double>(sc.m_y);
  const double r = my / mx;  // bits of B_c sharing one B_x bit
  const double lx1 = f.lx1;
  const double lx2 = f.lx2;
  const double ly1 = f.ly1;
  const double ly2 = f.ly2;

  const ClassLogFactors marg_x{lx1, lx1, 0.0};
  const ClassLogFactors marg_y{ly1, 0.0, ly1};
  const ClassLogFactors marg_c{f.lc1, lx1, ly1};

  // Joint factor tables (see header comment for the derivations).
  const ClassLogFactors j_xx{lx2, lx2, 0.0};
  const ClassLogFactors j_yy{ly2, 0.0, ly2};
  const ClassLogFactors j_cc_same{lx1 + f.lprot2, lx1, ly2};
  const ClassLogFactors j_cc_diff{lx2 + f.lprot2, lx2, ly2};
  const ClassLogFactors j_cx_off{f.l_cx_off, lx2, ly1};
  // Cov(C_i, Y_j), j != i. Same x-residue: identical to j_cc_same.
  const ClassLogFactors j_cy_diff{f.l_cy_diff, lx1, ly2};
  // Cov(X_j, Y_i): only common vehicles couple the arrays.
  const ClassLogFactors j_xy_same{f.l_xy_same, lx1, ly1};
  const ClassLogFactors j_xy_diff{f.l_xy_diff, lx1, ly1};

  auto corr = [&](const ClassLogFactors& joint, const ClassLogFactors& a,
                  const ClassLogFactors& b) {
    // J/(q_a q_b) - 1, computed in log space.
    return std::expm1(ln_event(sc, joint) - ln_event(sc, a) - ln_event(sc, b));
  };

  LogSecondMoments out{};
  out.var_ln_x =
      (1.0 - q_x) / (mx * q_x) + ((mx - 1.0) / mx) * corr(j_xx, marg_x, marg_x);
  out.var_ln_y =
      (1.0 - q_y) / (my * q_y) + ((my - 1.0) / my) * corr(j_yy, marg_y, marg_y);
  out.var_ln_c = (1.0 - q_c) / (my * q_c) +
                 ((r - 1.0) / my) * corr(j_cc_same, marg_c, marg_c) +
                 ((my - r) / my) * corr(j_cc_diff, marg_c, marg_c);
  out.cov_ln_cx = (1.0 - q_x) / (mx * q_x) +
                  ((mx - 1.0) / mx) * corr(j_cx_off, marg_c, marg_x);
  out.cov_ln_cy = (1.0 - q_y) / (my * q_y) +
                  ((r - 1.0) / my) * corr(j_cc_same, marg_c, marg_y) +
                  ((my - r) / my) * corr(j_cy_diff, marg_c, marg_y);
  out.cov_ln_xy = (1.0 / mx) * corr(j_xy_same, marg_x, marg_y) +
                  ((mx - 1.0) / mx) * corr(j_xy_diff, marg_x, marg_y);
  return out;
}

// (1 − 1/m)^n from ln(1 − 1/m): common::pow_one_minus's expression.
double q_from_log(double n, double log_one_minus_inv_m) {
  if (n == 0.0) return 1.0;
  return std::exp(n * log_one_minus_inv_m);
}

}  // namespace

SizeFactors::SizeFactors(std::uint32_t s_in, std::size_t m_x_in,
                         std::size_t m_y_in)
    : s(s_in), m_x(m_x_in), m_y(m_y_in) {
  const double A = 1.0 / static_cast<double>(m_x);
  const double B = 1.0 / static_cast<double>(m_y);
  const double sd = static_cast<double>(s);
  const double w = 1.0 - 1.0 / sd;  // (s-1)/s
  lx1 = std::log1p(-A);
  lx2 = std::log1p(-2.0 * A);
  ly1 = std::log1p(-B);
  ly2 = std::log1p(-2.0 * B);
  // Per common vehicle, P[bit of B_c stays 0] = (1-A)(1 - wB): Eq. 6.
  const double l_wb = std::log1p(-w * B);
  lc1 = lx1 + l_wb;
  // Two B_c bits with distinct y-positions, same-slot protected:
  // invs + (1-invs)(1-2B) = 1 - 2wB.
  lprot2 = std::log1p(-2.0 * w * B);
  l_cx_off = lx2 + l_wb;
  // Cov(C_i, Y_j) off the x-residue: the same-slot branch can still hit
  // j with prob kappa = B/(1-A).
  const double kappa = B / (1.0 - A);
  const double invs = 1.0 - w;
  l_cy_diff = lx1 + std::log1p(-(invs * kappa + 2.0 * w * B));
  l_xy_same = std::log1p(-(A + w * B * (1.0 - A)));
  l_xy_diff = std::log1p(-(A + B * (1.0 - w * A)));
  // PairEstimator::log_ratio_denominator's expression, with
  // ln(1 − 1/m_y) = ly1.
  L = std::log1p(-((sd - 1.0) / (sd * static_cast<double>(m_y)))) - ly1;
}

double AccuracyModel::q_point(double n, std::size_t m) {
  return common::pow_one_minus(1.0 / static_cast<double>(m), n);
}

double AccuracyModel::q_combined(const PairScenario& raw) {
  return predict(raw, VarianceModel::kPaperBinomial).q_nc;
}

AccuracyPrediction AccuracyModel::predict(const PairScenario& raw,
                                          VarianceModel model) {
  const PairScenario sc = normalized(raw);
  return predict(sc, SizeFactors(sc.s, sc.m_x, sc.m_y), model);
}

AccuracyPrediction AccuracyModel::predict(const PairScenario& raw,
                                          const SizeFactors& f,
                                          VarianceModel model) {
  const PairScenario sc = normalized(raw);
  VLM_REQUIRE(f.s == sc.s && f.m_x == sc.m_x && f.m_y == sc.m_y,
              "size factors were built for another (s, m_x, m_y)");
  AccuracyPrediction out;
  out.q_nx = q_from_log(sc.n_x, f.lx1);
  out.q_ny = q_from_log(sc.n_y, f.ly1);
  const double L = f.L;
  out.q_nc = out.q_nx * out.q_ny * std::exp(sc.n_c * L);

  const double mx = static_cast<double>(sc.m_x);
  const double my = static_cast<double>(sc.m_y);

  double var_n;       // Var[ln V_c - ln V_x - ln V_y]
  double delta_diff;  // delta_c - delta_x - delta_y, delta = E lnV - ln E V
  if (model == VarianceModel::kPaperBinomial) {
    // Eqs. 25-31 under U ~ Binomial(m, q); Eq. 35's covariances collapse
    // to -delta_a * delta_b, which are O(1/m^2) and all but vanish.
    const double var_ln_x = (1.0 - out.q_nx) / (mx * out.q_nx);
    const double var_ln_y = (1.0 - out.q_ny) / (my * out.q_ny);
    const double var_ln_c = (1.0 - out.q_nc) / (my * out.q_nc);
    const double delta_x = -0.5 * var_ln_x;
    const double delta_y = -0.5 * var_ln_y;
    const double delta_c = -0.5 * var_ln_c;
    const double c1 = -delta_c * delta_x;
    const double c2 = -delta_c * delta_y;
    const double c3 = -delta_x * delta_y;
    var_n = (var_ln_c + var_ln_x + var_ln_y) + (-c1 - c2 + c3);  // Eq. 34
    delta_diff = delta_c - delta_x - delta_y;
  } else {
    const LogSecondMoments m2 =
        occupancy_moments(sc, f, out.q_nx, out.q_ny, out.q_nc);
    var_n = m2.var_ln_c + m2.var_ln_x + m2.var_ln_y - 2.0 * m2.cov_ln_cx -
            2.0 * m2.cov_ln_cy + 2.0 * m2.cov_ln_xy;
    delta_diff =
        -0.5 * (m2.var_ln_c - m2.var_ln_x - m2.var_ln_y);
  }

  // Eq. 32. Since ln q(n_c) − ln q(n_x) − ln q(n_y) = n_c * L, the mean
  // simplifies to n_c + (delta_c − delta_x − delta_y) / L.
  out.expected_estimate = sc.n_c + delta_diff / L;
  out.bias_ratio = out.expected_estimate / sc.n_c - 1.0;  // Eq. 33
  out.variance = std::max(0.0, var_n) / (L * L);          // Eq. 34
  out.stddev_ratio = std::sqrt(out.variance) / sc.n_c;    // Eq. 36
  return out;
}

}  // namespace vlm::core

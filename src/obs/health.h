// Estimator-health telemetry: continuous self-diagnostics for the VLM
// measurement pipeline.
//
// The estimator fails silently: an over-saturated bit array (n >> m)
// still produces numbers — Eq. 5's MLE just degenerates as the zero
// count approaches 0, and every OD estimate decoded from that array is
// corrupted without any crash or test failure. Likewise a deployment
// whose realized load factor f = m/n drifts from the sizing plan
// (m = 2^ceil(log2(n̄·f̄)), src/core/sizing.*) operates outside the
// regime the paper's Section V accuracy model was budgeted for. This
// module evaluates both conditions at every period close and decode,
// plus the predicted relative error per decoded pair (the cell's
// occupancy-exact stddev / n̂_c, the Eq. 36 ratio under the corrected
// variance model), and publishes them as health/* metrics through the
// standard exporters:
//
//   health/rsu_saturated        counter  RSU-periods with fill above
//                                        the saturation threshold
//   health/load_factor_drift    counter  RSU-periods whose f = m/n left
//                                        the sizing plan's band
//   health/rsus_assessed        counter  RSU-periods examined
//   health/fill_fraction        histogram (micro) per-RSU fill fraction
//   health/fill_fraction_max    gauge    worst fill this assessment
//   health/load_factor_min      gauge    tightest (smallest) f = m/n
//   health/predicted_rel_err    histogram (micro) per-pair predicted
//                                        relative error (decode only)
//   health/predicted_rel_err_max gauge   worst predicted pair rel err
//   health/pairs_assessed       counter  measured pairs with a usable
//                                        interval
//   health/pairs_degraded       counter  measured pairs skipped:
//                                        degraded / zero estimate
//
// The period-close metrics and the decode metrics register lazily as
// two independent groups: a simulate run that never decodes exports no
// decode-only histograms (every exported histogram must have observations
// — CI's span smoke asserts count > 0 across the board).
//
// Layering: this sits ABOVE vlm_core (it reads core::RsuState and
// core::OdMatrix), so it is its own library target (vlm_obs_health)
// rather than part of layer-free vlm_obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/od_matrix.h"
#include "core/rsu_state.h"

namespace vlm::obs::health {

// Thresholds for the period-close assessment.
struct HealthOptions {
  // Saturation flag: zero_fraction <= this means Eq. 5's denominator
  // ln(V_y) is within noise of ln(0) and the MLE is unusable. 0.05
  // corresponds to a realized load factor around 1/3 — far beyond any
  // sizing the paper's model budgets for.
  double saturation_zero_fraction = 0.05;
  // Sizing plan's target load factor f̄ (Scheme::target_load_factor()).
  // 0 disables the drift check (schemes without a sizing plan, e.g. FBM).
  double target_load_factor = 0.0;
  // Drift flag: realized f outside [f̄ / tol, f̄ · tol]. The sizing rule
  // rounds m up to a power of two, so realized f legitimately sits up to
  // 2× above target; the default band only fires on genuine demand
  // surprises, not rounding.
  double load_factor_drift_tolerance = 2.0;
};

// One RSU's period-close verdict.
struct RsuHealth {
  std::size_t rsu = 0;
  double fill_fraction = 0.0;  // 1 − V_x, the fraction of bits set
  double load_factor = 0.0;    // realized m/n (inf when n == 0)
  bool saturated = false;
  bool drifted = false;
};

// Aggregate of one assessment (one period close, or one decode).
struct HealthSummary {
  std::size_t rsus_assessed = 0;
  std::size_t rsus_saturated = 0;
  std::size_t rsus_drifted = 0;
  double max_fill_fraction = 0.0;
  double min_load_factor = 0.0;  // 0 when nothing was assessed
  // Decode-side (zero unless assess_pairs ran):
  std::size_t pairs_assessed = 0;
  std::size_t pairs_degraded = 0;
  double max_predicted_rel_err = 0.0;
  double mean_predicted_rel_err = 0.0;

  bool any_warning() const { return rsus_saturated > 0 || rsus_drifted > 0; }
};

// Per-RSU saturation / load-factor-drift check. Publishes the
// period-close metric group to the global registry and returns the
// aggregate. `out_per_rsu`, when non-null, receives one entry per RSU
// (for the CLI health tables).
HealthSummary assess_rsus(std::span<const core::RsuState> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu = nullptr);

// Same, over non-owning pointers — for callers (the simulation's RSU
// fleet) whose states live inside larger objects; copying a state would
// copy its whole bit array.
HealthSummary assess_rsus(std::span<const core::RsuState* const> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu = nullptr);

// Per-pair predicted relative error: for every measured pair of the
// decoded matrix, reads stddev / n̂_c off the cell's interval — the
// occupancy-exact model the interval itself is built from, so health and
// intervals share one variance model — and publishes the decode metric
// group. Walks only measured cells, and derives the interval only for
// cells that are not degraded (IntervalEstimator::degraded, which also
// rules out zero estimates). Degraded cells and non-finite ratios count
// as degraded and are skipped, so pairs_assessed + pairs_degraded grows
// by matrix.measured_pairs().
// Extends `summary` in place. The cells are walked in fixed slices of
// 4096 spread over `workers` threads (>= 1) and reduced in slice order,
// so the summary is identical for every worker count.
void assess_pairs(const core::OdMatrix& matrix, HealthSummary& summary,
                  unsigned workers = 1);

// One-line summary for the CLI stats output, e.g.
//   "health             rsus 16  saturated 3  drifted 0  max_fill 0.993"
// with the pair fields appended when pairs were assessed.
std::string format_health_summary(const HealthSummary& summary);

}  // namespace vlm::obs::health

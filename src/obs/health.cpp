#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace vlm::obs::health {

namespace {

// Dimensionless ratios land in micro-unit histograms: raw observations
// are parts-per-million, exporters scale back to units.
std::uint64_t to_micro(double ratio) {
  if (!(ratio > 0.0)) return 0;
  const double micro = ratio * 1e6;
  if (micro >= 9e18) return UINT64_MAX;
  return static_cast<std::uint64_t>(std::llround(micro));
}

// The two metric groups register lazily and independently: a run that
// closes periods but never decodes must not export decode-only
// histograms (CI asserts every exported span histogram has count > 0).
struct RsuGroup {
  Counter& assessed;
  Counter& saturated;
  Counter& drifted;
  Histogram& fill_fraction;
  Gauge& fill_fraction_max;
  Gauge& load_factor_min;
};

RsuGroup& rsu_group() {
  MetricsRegistry& reg = MetricsRegistry::global();
  static RsuGroup* group = new RsuGroup{
      reg.counter("health/rsus_assessed"),
      reg.counter("health/rsu_saturated"),
      reg.counter("health/load_factor_drift"),
      reg.histogram("health/fill_fraction", Unit::kMicro),
      reg.gauge("health/fill_fraction_max"),
      reg.gauge("health/load_factor_min"),
  };
  return *group;
}

struct PairGroup {
  Counter& assessed;
  Counter& degraded;
  Histogram& predicted_rel_err;
  Gauge& predicted_rel_err_max;
};

PairGroup& pair_group() {
  MetricsRegistry& reg = MetricsRegistry::global();
  static PairGroup* group = new PairGroup{
      reg.counter("health/pairs_assessed"),
      reg.counter("health/pairs_degraded"),
      reg.histogram("health/predicted_rel_err", Unit::kMicro),
      reg.gauge("health/predicted_rel_err_max"),
  };
  return *group;
}

}  // namespace

HealthSummary assess_rsus(std::span<const core::RsuState> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu) {
  std::vector<const core::RsuState*> pointers;
  pointers.reserve(states.size());
  for (const core::RsuState& state : states) pointers.push_back(&state);
  return assess_rsus(std::span<const core::RsuState* const>(pointers), options,
                     out_per_rsu);
}

HealthSummary assess_rsus(std::span<const core::RsuState* const> states,
                          const HealthOptions& options,
                          std::vector<RsuHealth>* out_per_rsu) {
  HealthSummary summary;
  if (out_per_rsu != nullptr) {
    out_per_rsu->clear();
    out_per_rsu->reserve(states.size());
  }
  RsuGroup& metrics = rsu_group();
  double min_load_factor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const core::RsuState& state = *states[i];
    RsuHealth rsu;
    rsu.rsu = i;
    rsu.fill_fraction = 1.0 - state.zero_fraction();
    rsu.load_factor = state.load_factor();
    const bool has_traffic = state.counter() > 0;
    // Saturation: the zero fraction V_x is the observable Eq. 5 takes
    // the log of; at or below the threshold the MLE is numerically
    // degenerate regardless of the true volume.
    rsu.saturated =
        has_traffic && state.zero_fraction() <= options.saturation_zero_fraction;
    rsu.drifted = has_traffic && options.target_load_factor > 0.0 &&
                  (rsu.load_factor < options.target_load_factor /
                                         options.load_factor_drift_tolerance ||
                   rsu.load_factor > options.target_load_factor *
                                         options.load_factor_drift_tolerance);

    ++summary.rsus_assessed;
    summary.rsus_saturated += rsu.saturated ? 1 : 0;
    summary.rsus_drifted += rsu.drifted ? 1 : 0;
    summary.max_fill_fraction =
        std::max(summary.max_fill_fraction, rsu.fill_fraction);
    if (has_traffic) min_load_factor = std::min(min_load_factor, rsu.load_factor);

    metrics.fill_fraction.observe(to_micro(rsu.fill_fraction));
    if (out_per_rsu != nullptr) out_per_rsu->push_back(rsu);
  }
  summary.min_load_factor =
      std::isfinite(min_load_factor) ? min_load_factor : 0.0;

  metrics.assessed.add(summary.rsus_assessed);
  metrics.saturated.add(summary.rsus_saturated);
  metrics.drifted.add(summary.rsus_drifted);
  metrics.fill_fraction_max.set(summary.max_fill_fraction);
  metrics.load_factor_min.set(summary.min_load_factor);
  return summary;
}

void assess_pairs(const core::OdMatrix& matrix, HealthSummary& summary,
                  unsigned workers) {
  PairGroup& metrics = pair_group();
  // Fixed slices of the cell storage, tallied independently and reduced
  // in slice order: the summary depends on the cell count, never on the
  // worker count. A small matrix is one slice, walked inline.
  constexpr std::size_t kCellsPerSlice = 4096;
  const std::size_t cells = matrix.stored_cells();
  const std::size_t slices = (cells + kCellsPerSlice - 1) / kCellsPerSlice;
  struct SliceTally {
    std::size_t assessed = 0;
    std::size_t degraded = 0;
    double rel_err_sum = 0.0;
    double rel_err_max = 0.0;
  };
  std::vector<SliceTally> tallies(slices);
  common::parallel_for(slices, workers, [&](std::size_t slice) {
    SliceTally tally;
    const std::size_t begin = slice * kCellsPerSlice;
    matrix.for_each_measured(
        begin, std::min(cells, begin + kCellsPerSlice),
        [&](const core::OdMatrix::Cell& cell) {
          // The degraded flag needs Eq. 5 only, so the variance model
          // runs just for the cells assessed. A non-degraded cell's
          // stddev is the occupancy-exact model evaluated at n̂_c >= 1
          // itself (no clamping), so the ratio is exactly the interval's
          // own relative error.
          if (cell.degraded) {
            ++tally.degraded;
            return;
          }
          const double rel_err =
              matrix.interval(cell).stddev / cell.n_c_hat;
          if (!std::isfinite(rel_err)) {
            ++tally.degraded;
            return;
          }
          ++tally.assessed;
          tally.rel_err_sum += rel_err;
          tally.rel_err_max = std::max(tally.rel_err_max, rel_err);
          metrics.predicted_rel_err.observe(to_micro(rel_err));
        });
    tallies[slice] = tally;
  });
  double rel_err_sum = 0.0;
  for (const SliceTally& tally : tallies) {
    summary.pairs_assessed += tally.assessed;
    summary.pairs_degraded += tally.degraded;
    rel_err_sum += tally.rel_err_sum;
    summary.max_predicted_rel_err =
        std::max(summary.max_predicted_rel_err, tally.rel_err_max);
  }
  summary.mean_predicted_rel_err =
      summary.pairs_assessed > 0
          ? rel_err_sum / static_cast<double>(summary.pairs_assessed)
          : 0.0;
  metrics.assessed.add(summary.pairs_assessed);
  metrics.degraded.add(summary.pairs_degraded);
  metrics.predicted_rel_err_max.set(summary.max_predicted_rel_err);
}

std::string format_health_summary(const HealthSummary& summary) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "health: %zu RSU(s), %zu saturated, %zu drifted, max fill "
                "%.3f, min load factor %.2f",
                summary.rsus_assessed, summary.rsus_saturated,
                summary.rsus_drifted, summary.max_fill_fraction,
                summary.min_load_factor);
  std::string out = buffer;
  if (summary.pairs_assessed > 0 || summary.pairs_degraded > 0) {
    std::snprintf(buffer, sizeof buffer,
                  "; %zu pair(s) assessed, %zu degraded, predicted rel err "
                  "max %.3f mean %.3f",
                  summary.pairs_assessed, summary.pairs_degraded,
                  summary.max_predicted_rel_err,
                  summary.mean_predicted_rel_err);
    out += buffer;
  }
  out += '\n';
  return out;
}

}  // namespace vlm::obs::health

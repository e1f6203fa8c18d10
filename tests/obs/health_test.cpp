// Estimator-health telemetry: a synthetic over-saturated RSU (n >> m)
// must trip the saturation flag and the health/rsu_saturated counter, a
// fleet off its sizing plan must trip the drift flag, and a decoded
// matrix must yield a nonzero predicted-relative-error gauge read off
// its cells' intervals.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "core/interval.h"
#include "core/od_matrix.h"
#include "core/rsu_state.h"
#include "obs/metrics.h"

namespace vlm::obs::health {
namespace {

// A healthy state: `local` vehicles of its own plus the shared indices.
core::RsuState make_state(std::size_t m, std::size_t local,
                          std::span<const std::size_t> shared,
                          std::uint64_t& h) {
  core::RsuState state(m);
  for (std::size_t i = 0; i < local; ++i) {
    state.record(static_cast<std::size_t>(common::mix64(++h) % m));
  }
  for (const std::size_t index : shared) state.record(index);
  return state;
}

TEST(HealthTest, OverSaturatedRsuTripsSaturation) {
  // n = 10000 into m = 64: every bit ends up set, the zero count hits 0
  // and Eq. 5's MLE is degenerate — exactly the silent failure the
  // telemetry exists to surface.
  core::RsuState state(64);
  std::uint64_t h = 0x5A7;
  for (int i = 0; i < 10'000; ++i) {
    state.record(static_cast<std::size_t>(common::mix64(++h) % 64));
  }
  ASSERT_EQ(state.zero_count(), 0u);

  Counter& counter = MetricsRegistry::global().counter("health/rsu_saturated");
  const std::uint64_t before = counter.value();
  std::vector<RsuHealth> per_rsu;
  std::vector<core::RsuState> states;
  states.push_back(std::move(state));
  const HealthSummary summary = assess_rsus(
      std::span<const core::RsuState>(states), HealthOptions{}, &per_rsu);

  EXPECT_EQ(summary.rsus_assessed, 1u);
  EXPECT_EQ(summary.rsus_saturated, 1u);
  EXPECT_TRUE(summary.any_warning());
  EXPECT_DOUBLE_EQ(summary.max_fill_fraction, 1.0);
  ASSERT_EQ(per_rsu.size(), 1u);
  EXPECT_TRUE(per_rsu[0].saturated);
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::global().gauge("health/fill_fraction_max").value(), 1.0);
}

TEST(HealthTest, HealthyRsuStaysQuiet) {
  std::uint64_t h = 0xB0B;
  std::vector<core::RsuState> states;
  // n = 128 into m = 1024: load factor 8 (the paper's f̄), zero fraction
  // ~e^{-1/8} — nowhere near the saturation threshold.
  states.push_back(make_state(1024, 128, {}, h));
  HealthOptions options;
  options.target_load_factor = 8.0;
  const HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  EXPECT_EQ(summary.rsus_saturated, 0u);
  EXPECT_EQ(summary.rsus_drifted, 0u);
  EXPECT_FALSE(summary.any_warning());
  EXPECT_GT(summary.min_load_factor, 4.0);
}

TEST(HealthTest, LoadFactorDriftAgainstSizingPlan) {
  std::uint64_t h = 0xD1F;
  std::vector<core::RsuState> states;
  // Plan said f̄ = 8, but demand quadrupled: n = 512 into m = 1024 gives
  // f = 2, below the [4, 16] tolerance band.
  states.push_back(make_state(1024, 512, {}, h));
  HealthOptions options;
  options.target_load_factor = 8.0;
  const HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), options);
  EXPECT_EQ(summary.rsus_drifted, 1u);
  // The same fleet with the drift check off (no sizing plan) is quiet.
  const HealthSummary unplanned =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  EXPECT_EQ(unplanned.rsus_drifted, 0u);
}

TEST(HealthTest, PointerSpanOverloadMatchesValueSpan) {
  std::uint64_t h = 0xCAFE;
  std::vector<core::RsuState> states;
  states.push_back(make_state(512, 100, {}, h));
  states.push_back(make_state(1024, 3000, {}, h));
  std::vector<const core::RsuState*> pointers{&states[0], &states[1]};
  const HealthSummary by_value =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  const HealthSummary by_pointer = assess_rsus(
      std::span<const core::RsuState* const>(pointers), HealthOptions{});
  EXPECT_EQ(by_pointer.rsus_assessed, by_value.rsus_assessed);
  EXPECT_EQ(by_pointer.rsus_saturated, by_value.rsus_saturated);
  EXPECT_DOUBLE_EQ(by_pointer.max_fill_fraction, by_value.max_fill_fraction);
  EXPECT_DOUBLE_EQ(by_pointer.min_load_factor, by_value.min_load_factor);
}

TEST(HealthTest, DecodedPairsYieldNonzeroPredictedRelErr) {
  // Two healthy RSUs sharing one road of 200 vehicles plus 200 local
  // each: the decoded overlap is positive and inside the accuracy
  // model's domain, so the pair must be assessed with a strictly
  // positive predicted relative error (Eq. 36), pushed to the gauge.
  std::uint64_t h = 0xF00D;
  std::vector<std::size_t> shared;
  for (int i = 0; i < 200; ++i) {
    shared.push_back(static_cast<std::size_t>(common::mix64(++h) % 1024));
  }
  std::vector<core::RsuState> states;
  states.push_back(make_state(1024, 200, shared, h));
  states.push_back(make_state(1024, 200, shared, h));

  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  ASSERT_TRUE(matrix.measured(0, 1));
  ASSERT_GT(matrix.at(0, 1).n_c_hat, 0.0);

  HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  assess_pairs(matrix, summary);

  EXPECT_EQ(summary.pairs_assessed, 1u);
  EXPECT_EQ(summary.pairs_degraded, 0u);
  EXPECT_GT(summary.max_predicted_rel_err, 0.0);
  EXPECT_GT(summary.mean_predicted_rel_err, 0.0);
  EXPECT_GT(
      MetricsRegistry::global().gauge("health/predicted_rel_err_max").value(),
      0.0);
}

// Runs assess_pairs on `matrix` and checks that its observations are
// exactly stddev / n̂_c of the measured, non-degraded cells: the
// histogram gains one observation per such cell with the same micro-unit
// total, the max and mean match, and every measured cell is counted
// once as assessed or degraded.
void expect_rel_err_read_off_cells(const core::OdMatrix& matrix) {
  Histogram& hist = MetricsRegistry::global().histogram(
      "health/predicted_rel_err", Unit::kMicro);
  const HistogramSummary before = hist.summary();
  HealthSummary summary;
  assess_pairs(matrix, summary);
  const HistogramSummary after = hist.summary();

  std::size_t cells = 0;
  std::size_t usable = 0;
  double micro_total = 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t a = 0; a < matrix.rsu_count(); ++a) {
    for (std::size_t b = a + 1; b < matrix.rsu_count(); ++b) {
      if (!matrix.measured(a, b)) continue;
      ++cells;
      const core::EstimateInterval& cell = matrix.at(a, b);
      if (cell.degraded || cell.n_c_hat <= 0.0) continue;
      const double rel_err = cell.stddev / cell.n_c_hat;
      ++usable;
      sum += rel_err;
      max = std::max(max, rel_err);
      micro_total += static_cast<double>(std::llround(rel_err * 1e6));
    }
  }
  EXPECT_EQ(cells, matrix.measured_pairs());
  EXPECT_EQ(summary.pairs_assessed + summary.pairs_degraded,
            matrix.measured_pairs());
  EXPECT_EQ(summary.pairs_assessed, usable);
  EXPECT_GT(usable, 0u);
  EXPECT_EQ(after.count - before.count, usable);
  EXPECT_NEAR((after.total - before.total) * 1e6, micro_total, 0.5);
  EXPECT_EQ(summary.max_predicted_rel_err, max);
  EXPECT_DOUBLE_EQ(summary.mean_predicted_rel_err,
                   sum / static_cast<double>(usable));
}

TEST(HealthTest, PredictedRelErrIsReadOffDenseCells) {
  // Mixed array sizes, with the larger array both first and second in
  // row order, plus one idle RSU whose pairs are degraded.
  std::uint64_t h = 0xA11CE;
  std::vector<std::size_t> shared;
  for (int i = 0; i < 300; ++i) {
    shared.push_back(static_cast<std::size_t>(common::mix64(++h) % 1024));
  }
  std::vector<core::RsuState> states;
  states.push_back(make_state(4096, 600, shared, h));
  states.push_back(make_state(1024, 150, shared, h));
  states.push_back(make_state(2048, 300, shared, h));
  states.push_back(make_state(1024, 0, {}, h));
  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  if (std::getenv("VLM_DECODE") == nullptr) {
    ASSERT_FALSE(matrix.sparse());
    ASSERT_EQ(matrix.measured_pairs(), 6u);
  }
  expect_rel_err_read_off_cells(matrix);
}

TEST(HealthTest, PredictedRelErrIsReadOffSparseCells) {
  // Ten RSUs, two shared roads, everything else disjoint: the pruned
  // decode keeps only the roads (CSR storage) unless VLM_DECODE pins
  // another path, which the check must survive too.
  constexpr std::size_t kM = 1 << 13;
  std::uint64_t h = 0x5BA25E;
  std::vector<core::RsuState> states;
  for (std::size_t r = 0; r < 10; ++r) {
    states.push_back(make_state(kM, kM / 8, {}, h));
  }
  const std::pair<std::size_t, std::size_t> roads[] = {{0, 7}, {3, 4}};
  for (const auto& [a, b] : roads) {
    for (std::size_t i = 0; i < kM / 8; ++i) {
      const auto index = static_cast<std::size_t>(common::mix64(++h) % kM);
      states[a].record(index);
      states[b].record(index);
    }
  }
  core::DecodeOptions options;
  options.mode = core::DecodeMode::kPruned;
  options.prune.sample_stride = 2;
  options.prune.min_volume = 700.0;
  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, options, nullptr);
  const char* pin = std::getenv("VLM_DECODE");
  if (pin == nullptr || std::string_view(pin) == "pruned") {
    ASSERT_TRUE(matrix.sparse());
    EXPECT_LT(matrix.measured_pairs(), 45u);
  }
  expect_rel_err_read_off_cells(matrix);
}

TEST(HealthTest, SaturatedPairCountsAsDegraded) {
  // Both endpoints over-saturated: the estimator marks the cell degraded
  // and the health pass must not feed it to the accuracy model.
  std::uint64_t h = 0xDEAD;
  std::vector<core::RsuState> states;
  states.push_back(make_state(64, 10'000, {}, h));
  states.push_back(make_state(64, 10'000, {}, h));
  ASSERT_EQ(states[0].zero_count(), 0u);

  const core::OdMatrix matrix =
      core::estimate_od_matrix(states, 2, 1.96, {}, nullptr);
  HealthSummary summary =
      assess_rsus(std::span<const core::RsuState>(states), HealthOptions{});
  assess_pairs(matrix, summary);

  EXPECT_EQ(summary.rsus_saturated, 2u);
  EXPECT_EQ(summary.pairs_assessed, 0u);
  EXPECT_EQ(summary.pairs_degraded, 1u);
}

// Pair health walks the cells in fixed 4096-cell slices reduced in slice
// order, so its summary must not depend on the worker count — down to
// the last bit of the mean — and its counts and max must equal a serial
// recount over the cells.
TEST(HealthTest, PairSummaryDoesNotDependOnWorkerCount) {
  // 160 RSUs: 12,720 cells, four slices. Each RSU shares a road with its
  // neighbor, so the matrix mixes assessed and degraded cells.
  constexpr std::size_t kRsus = 160;
  std::uint64_t h = 0x5111CE;
  std::vector<core::RsuState> states;
  std::vector<std::size_t> road;
  for (std::size_t r = 0; r < kRsus; ++r) {
    std::vector<std::size_t> shared = road;
    road.clear();
    for (int i = 0; i < 120; ++i) {
      road.push_back(static_cast<std::size_t>(common::mix64(++h) % 1024));
    }
    shared.insert(shared.end(), road.begin(), road.end());
    states.push_back(make_state(1024, 150, shared, h));
  }
  const core::OdMatrix matrix = core::estimate_od_matrix(states, 2, 1.96, 4);
  ASSERT_GT(matrix.stored_cells(), 3u * 4096u);

  std::size_t assessed = 0;
  std::size_t degraded = 0;
  double max = 0.0;
  for (std::size_t a = 0; a < kRsus; ++a) {
    for (std::size_t b = a + 1; b < kRsus; ++b) {
      const core::EstimateInterval& cell = matrix.at(a, b);
      const double rel_err = cell.stddev / cell.n_c_hat;
      if (cell.degraded || !(cell.n_c_hat > 0.0) || !std::isfinite(rel_err)) {
        ++degraded;
        continue;
      }
      ++assessed;
      max = std::max(max, rel_err);
    }
  }
  ASSERT_GT(assessed, 0u);
  ASSERT_GT(degraded, 0u);

  HealthSummary serial;
  assess_pairs(matrix, serial, 1);
  EXPECT_EQ(serial.pairs_assessed, assessed);
  EXPECT_EQ(serial.pairs_degraded, degraded);
  EXPECT_EQ(serial.max_predicted_rel_err, max);
  for (const unsigned workers : {2u, 4u, 7u}) {
    HealthSummary summary;
    assess_pairs(matrix, summary, workers);
    EXPECT_EQ(summary.pairs_assessed, serial.pairs_assessed) << workers;
    EXPECT_EQ(summary.pairs_degraded, serial.pairs_degraded) << workers;
    EXPECT_EQ(summary.max_predicted_rel_err, serial.max_predicted_rel_err);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.mean_predicted_rel_err),
              std::bit_cast<std::uint64_t>(serial.mean_predicted_rel_err))
        << workers;
  }
}

// Pair health reads derived cells: its degraded test needs Eq. 5 only,
// and it derives σ just for the cells it assesses. On a fleet with
// saturated, idle and sub-word RSUs and size ties, the summary must equal
// a serial recount through the per-pair IntervalEstimator::estimate that
// applies the documented rule itself: a cell is degraded when its MLE hit
// the saturation floor, n̂_c < 1, n̂_c > min(n_x, n_y), or its ratio is
// not finite.
TEST(HealthTest, DerivedWalkMatchesPerPairRecount) {
  // Ties at scattered positions, sub-word arrays of 8-32 bits, an idle
  // RSU (counter 0) and a saturated one. Vehicles come from one pool and
  // land on the same index modulo every power-of-two size, so pairs
  // share traffic; loads run from a handful of vehicles to twice the
  // array size. 23 RSUs: 253 cells, one walk slice.
  const std::size_t sizes[] = {256,  8,   1024, 256, 64,  16,   4096, 1024,
                               32,   512, 256,  128, 64,  2048, 512,  8,
                               1024, 128, 256,  64,  32,  512};
  std::uint64_t h = 0xDE7A11;
  std::vector<core::RsuState> states;
  for (const std::size_t m : sizes) {
    core::RsuState state(m);
    const std::size_t visits =
        static_cast<std::size_t>(common::mix64(++h) % (2 * m + 1));
    for (std::size_t i = 0; i < visits; ++i) {
      const std::uint64_t vehicle = common::mix64(++h) % 3000;
      state.record(static_cast<std::size_t>(common::mix64(vehicle) % m));
    }
    states.push_back(std::move(state));
  }
  states[4] = core::RsuState(64);  // idle
  states.push_back(make_state(64, 2000, {}, h));  // saturated
  ASSERT_EQ(states.back().zero_count(), 0u);

  const core::IntervalEstimator oracle(2, 1.96);
  std::size_t assessed = 0;
  std::size_t degraded = 0;
  std::size_t over_support = 0;
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t a = 0; a < states.size(); ++a) {
    for (std::size_t b = a + 1; b < states.size(); ++b) {
      core::PairEstimate point;
      const core::EstimateInterval cell =
          oracle.estimate(states[a], states[b], &point);
      const bool a_small = states[a].array_size() <= states[b].array_size();
      const double support = static_cast<double>(
          std::min(states[a_small ? a : b].counter(),
                   states[a_small ? b : a].counter()));
      over_support += cell.n_c_hat > support && !point.saturated ? 1 : 0;
      const double rel_err = cell.stddev / cell.n_c_hat;
      if (point.saturated || cell.n_c_hat < 1.0 || cell.n_c_hat > support ||
          !std::isfinite(rel_err)) {
        ++degraded;
        continue;
      }
      ++assessed;
      sum += rel_err;
      max = std::max(max, rel_err);
    }
  }
  ASSERT_GT(assessed, 0u);
  ASSERT_GT(over_support, 0u);

  Histogram& hist = MetricsRegistry::global().histogram(
      "health/predicted_rel_err", Unit::kMicro);
  const HistogramSummary before = hist.summary();
  const core::OdMatrix matrix = core::estimate_od_matrix(states, 2, 1.96, 3);
  HealthSummary summary;
  assess_pairs(matrix, summary, 3);
  EXPECT_EQ(summary.pairs_assessed, assessed);
  EXPECT_EQ(summary.pairs_degraded, degraded);
  EXPECT_EQ(hist.summary().count - before.count, assessed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.max_predicted_rel_err),
            std::bit_cast<std::uint64_t>(max));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.mean_predicted_rel_err),
            std::bit_cast<std::uint64_t>(sum / static_cast<double>(assessed)));
}

TEST(HealthTest, FormatSummaryMentionsPairsOnlyWhenAssessed) {
  HealthSummary rsu_only;
  rsu_only.rsus_assessed = 16;
  rsu_only.rsus_saturated = 3;
  const std::string line = format_health_summary(rsu_only);
  EXPECT_NE(line.find("health:"), std::string::npos);
  EXPECT_NE(line.find("3 saturated"), std::string::npos);
  EXPECT_EQ(line.find("pair"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');

  HealthSummary with_pairs = rsu_only;
  with_pairs.pairs_assessed = 120;
  with_pairs.max_predicted_rel_err = 0.25;
  EXPECT_NE(format_health_summary(with_pairs).find("120 pair(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace vlm::obs::health

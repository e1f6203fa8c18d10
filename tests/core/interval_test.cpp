#include "core/interval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/pair_simulation.h"

namespace vlm::core {
namespace {

TEST(IntervalEstimator, CoversTheTruthAtTwoSigma) {
  // Over many independent periods, the 95% interval should contain the
  // true n_c roughly 95% of the time; demand at least 85% to keep the
  // test robust (the interval is evaluated at the ESTIMATED n_c).
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2, 1.96);
  const PairWorkload w{10'000, 50'000, 2'000};
  int covered = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    const auto states = simulate_pair(enc, w, 1 << 17, 1 << 19,
                                      5000 + static_cast<std::uint64_t>(t));
    const EstimateInterval e = est.estimate(states.x, states.y);
    if (e.lower <= 2000.0 && 2000.0 <= e.upper) ++covered;
  }
  EXPECT_GE(covered, 85);
  EXPECT_LE(covered, 100);
}

struct CoverageCase {
  std::uint64_t n_x, n_y, n_c;
  std::size_t m_x, m_y;
};

class IntervalCoverage : public ::testing::TestWithParam<CoverageCase> {};

TEST_P(IntervalCoverage, NominalCoverageAcrossScenarios) {
  const CoverageCase c = GetParam();
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2, 1.96);
  int covered = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double predicted_sd = 0.0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    const auto states =
        simulate_pair(enc, PairWorkload{c.n_x, c.n_y, c.n_c}, c.m_x, c.m_y,
                      81'000 + static_cast<std::uint64_t>(t));
    const EstimateInterval e = est.estimate(states.x, states.y);
    if (e.lower <= double(c.n_c) && double(c.n_c) <= e.upper) ++covered;
    sum += e.n_c_hat;
    sum_sq += e.n_c_hat * e.n_c_hat;
    predicted_sd += e.stddev / kTrials;
  }
  // 95% nominal; tolerate down to 80% (interval evaluated at the
  // ESTIMATED n_c, plus binomial noise over 60 trials).
  EXPECT_GE(covered, 48) << covered << "/" << kTrials << " covered";
  // Honest width, not just coverage: an interval far wider than the
  // estimator's spread also covers. The sample sd of 60 trials is good
  // to ~10%, so a factor of two either way is a generous band.
  const double mean = sum / kTrials;
  const double empirical_sd =
      std::sqrt((sum_sq - kTrials * mean * mean) / (kTrials - 1));
  EXPECT_GT(predicted_sd, 0.5 * empirical_sd);
  EXPECT_LT(predicted_sd, 2.0 * empirical_sd);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, IntervalCoverage,
    ::testing::Values(CoverageCase{10'000, 10'000, 2'000, 1 << 17, 1 << 17},
                      CoverageCase{10'000, 50'000, 1'000, 1 << 17, 1 << 19},
                      CoverageCase{5'000, 100'000, 500, 1 << 16, 1 << 20},
                      CoverageCase{20'000, 20'000, 10'000, 1 << 18, 1 << 18},
                      // The larger array as the first operand.
                      CoverageCase{40'000, 3'000, 1'500, 1 << 16, 1 << 12}));

TEST(IntervalEstimator, OperandOrderDoesNotMatterForUnequalSizes) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  const auto states =
      simulate_pair(enc, PairWorkload{3'000, 40'000, 1'500}, 1 << 12, 1 << 16,
                    17);
  PairEstimate point_xy;
  PairEstimate point_yx;
  const EstimateInterval xy = est.estimate(states.x, states.y, &point_xy);
  const EstimateInterval yx = est.estimate(states.y, states.x, &point_yx);
  EXPECT_EQ(point_xy.raw, point_yx.raw);
  EXPECT_EQ(xy.n_c_hat, yx.n_c_hat);
  EXPECT_EQ(xy.stddev, yx.stddev);
  EXPECT_EQ(xy.lower, yx.lower);
  EXPECT_EQ(xy.upper, yx.upper);
  EXPECT_EQ(xy.floor_stddev, yx.floor_stddev);
  EXPECT_EQ(xy.degraded, yx.degraded);
  // The interval is the smaller-array-first one: annotate with the
  // counters in size order.
  const EstimateInterval annotated =
      est.annotate(point_xy, static_cast<double>(states.x.counter()),
                   static_cast<double>(states.y.counter()));
  EXPECT_EQ(xy.stddev, annotated.stddev);
}

TEST(IntervalEstimator, IntervalShapeIsSane) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  const auto states =
      simulate_pair(enc, PairWorkload{10'000, 50'000, 2'000}, 1 << 17,
                    1 << 19, 7);
  const EstimateInterval e = est.estimate(states.x, states.y);
  EXPECT_GT(e.stddev, 0.0);
  EXPECT_LE(e.lower, e.n_c_hat);
  EXPECT_GE(e.upper, e.n_c_hat);
  EXPECT_FALSE(e.degraded);
  // The floor is the unremovable component: stddev can't beat it.
  EXPECT_GE(e.stddev, e.floor_stddev * 0.9);
  EXPECT_NEAR(e.floor_stddev, std::sqrt(e.n_c_hat), std::sqrt(e.n_c_hat) * 0.2);
}

TEST(IntervalEstimator, WiderIntervalForNoisierConfiguration) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  // Saturated FBM-style configuration vs healthy VLM sizing, same load.
  const PairWorkload w{10'000, 500'000, 2'000};
  const auto starved = simulate_pair(enc, w, 1 << 17, 1 << 17, 11);
  const auto healthy = simulate_pair(enc, w, 1 << 17, 1 << 22, 11);
  const auto e_starved = est.estimate(starved.x, starved.y);
  const auto e_healthy = est.estimate(healthy.x, healthy.y);
  EXPECT_GT(e_starved.stddev, 2.0 * e_healthy.stddev);
}

TEST(IntervalEstimator, NearZeroEstimateIsDegradedNotCrashing) {
  Encoder enc(EncoderConfig{});
  IntervalEstimator est(2);
  const auto states =
      simulate_pair(enc, PairWorkload{5'000, 5'000, 0}, 1 << 16, 1 << 16, 3);
  const EstimateInterval e = est.estimate(states.x, states.y);
  EXPECT_GE(e.n_c_hat, 0.0);
  EXPECT_GE(e.upper, e.lower);
  // Either the estimate was clamped near zero (degraded) or happened to
  // be a small positive value with a valid interval.
  EXPECT_TRUE(e.degraded || e.n_c_hat >= 1.0);
}

TEST(IntervalEstimator, IdleRsusYieldEmptyInterval) {
  IntervalEstimator est(2);
  RsuState x(64), y(64);
  const EstimateInterval e = est.estimate(x, y);
  EXPECT_DOUBLE_EQ(e.n_c_hat, 0.0);
  EXPECT_DOUBLE_EQ(e.upper, 0.0);
  EXPECT_TRUE(e.degraded);
}

TEST(IntervalEstimator, Guards) {
  EXPECT_THROW(IntervalEstimator(2, 0.0), std::invalid_argument);
  IntervalEstimator est(2);
  PairEstimate fake;
  fake.m_x = fake.m_y = 1 << 10;
  fake.n_c_hat = 5.0;
  EXPECT_THROW((void)est.annotate(fake, -1.0, 10.0), std::invalid_argument);
}

TEST(IntervalEstimator, EstimateBeyondSupportIsClamped) {
  IntervalEstimator est(2);
  PairEstimate fake;
  fake.m_x = fake.m_y = 1 << 12;
  fake.n_c_hat = 500.0;  // more than min(n_x, n_y) below
  const EstimateInterval e = est.annotate(fake, 100.0, 400.0);
  EXPECT_TRUE(e.degraded);
  EXPECT_GT(e.stddev, 0.0);
}

}  // namespace
}  // namespace vlm::core

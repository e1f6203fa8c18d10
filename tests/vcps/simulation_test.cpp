#include "vcps/simulation.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/accuracy_model.h"

namespace vlm::vcps {
namespace {

SimulationConfig vlm_sim_config(double load_factor = 8.0) {
  SimulationConfig config;
  config.server.scheme =
      core::make_vlm_scheme({.s = 2, .load_factor = load_factor});
  config.seed = 11;
  return config;
}

std::vector<RsuSite> two_sites(double history_x, double history_y) {
  return {RsuSite{core::RsuId{100}, history_x},
          RsuSite{core::RsuId{200}, history_y}};
}

TEST(VcpsSimulation, FullPeriodLifecycle) {
  VcpsSimulation sim(vlm_sim_config(), two_sites(1000, 1000));
  sim.begin_period();
  const std::array<std::size_t, 2> both{0, 1};
  const std::array<std::size_t, 1> only_x{0};
  for (int v = 0; v < 200; ++v) sim.drive_vehicle(both);
  for (int v = 0; v < 300; ++v) sim.drive_vehicle(only_x);
  sim.end_period();
  EXPECT_EQ(sim.rsu(0).state().counter(), 500u);
  EXPECT_EQ(sim.rsu(1).state().counter(), 200u);
  EXPECT_EQ(sim.server().reports_received(), 2u);
  const auto estimate = sim.estimate(0, 1);
  EXPECT_GT(estimate.n_c_hat, 0.0);
}

TEST(VcpsSimulation, RecoversIntersectionEndToEnd) {
  // Realistic volumes so the estimate is statistically meaningful; this
  // exercises queries, certificates, replies, reports, serialization and
  // the estimator in one pass.
  VcpsSimulation sim(vlm_sim_config(), two_sites(10'000, 100'000));
  sim.begin_period();
  const std::array<std::size_t, 2> both{0, 1};
  const std::array<std::size_t, 1> only_x{0};
  const std::array<std::size_t, 1> only_y{1};
  for (int v = 0; v < 2'000; ++v) sim.drive_vehicle(both);
  for (int v = 0; v < 8'000; ++v) sim.drive_vehicle(only_x);
  for (int v = 0; v < 98'000; ++v) sim.drive_vehicle(only_y);
  sim.end_period();
  const auto estimate = sim.estimate(0, 1);
  const auto pred = core::AccuracyModel::predict(core::PairScenario{
      10'000, 100'000, 2'000, sim.rsu(0).state().array_size(),
      sim.rsu(1).state().array_size(), 2});
  EXPECT_NEAR(estimate.n_c_hat, 2000.0,
              std::max(2000.0 * 5.0 * pred.stddev_ratio, 100.0));
}

TEST(VcpsSimulation, ArraySizesFollowHistoryAcrossPeriods) {
  auto config = vlm_sim_config();
  config.server.history_alpha = 1.0;  // adopt the newest volume outright
  VcpsSimulation sim(config, two_sites(1'000, 1'000));
  sim.begin_period();
  EXPECT_EQ(sim.rsu(0).state().array_size(), std::size_t{1} << 13);
  // Period 1 sees 10x the expected traffic at RSU 0.
  const std::array<std::size_t, 1> only_x{0};
  for (int v = 0; v < 10'000; ++v) sim.drive_vehicle(only_x);
  sim.end_period();
  // Period 2's array grows to fit the new history.
  sim.begin_period();
  EXPECT_EQ(sim.rsu(0).state().array_size(), std::size_t{1} << 17);
}

TEST(VcpsSimulation, ChannelLossUndercountsButKeepsRunning) {
  auto config = vlm_sim_config();
  config.channel.query_loss = 0.3;
  VcpsSimulation sim(config, two_sites(10'000, 10'000));
  sim.begin_period();
  const std::array<std::size_t, 1> only_x{0};
  for (int v = 0; v < 10'000; ++v) sim.drive_vehicle(only_x);
  sim.end_period();
  const double counted = static_cast<double>(sim.rsu(0).state().counter());
  EXPECT_NEAR(counted, 7'000.0, 200.0);
  EXPECT_GT(sim.channel().queries_lost(), 0u);
}

TEST(VcpsSimulation, DuplicatedRepliesInflateCounterNotBits) {
  auto config = vlm_sim_config();
  config.channel.reply_duplicate = 0.5;
  VcpsSimulation sim(config, two_sites(10'000, 10'000));
  sim.begin_period();
  const std::array<std::size_t, 1> only_x{0};
  for (int v = 0; v < 10'000; ++v) sim.drive_vehicle(only_x);
  sim.end_period();
  // Counter over-counts by ~the duplication rate; the bitmap is immune
  // because setting the same bit twice is idempotent.
  const double counted = static_cast<double>(sim.rsu(0).state().counter());
  EXPECT_NEAR(counted, 15'000.0, 300.0);
  EXPECT_GT(sim.channel().replies_duplicated(), 3'000u);
}

TEST(VcpsSimulation, DrivingOutsidePeriodThrows) {
  VcpsSimulation sim(vlm_sim_config(), two_sites(100, 100));
  const std::array<std::size_t, 1> only_x{0};
  EXPECT_THROW(sim.drive_vehicle(only_x), std::invalid_argument);
  sim.begin_period();
  sim.drive_vehicle(only_x);
  sim.end_period();
  EXPECT_THROW(sim.drive_vehicle(only_x), std::invalid_argument);
  EXPECT_THROW(sim.end_period(), std::invalid_argument);
}

TEST(VcpsSimulation, RsuPositionBoundsChecked) {
  VcpsSimulation sim(vlm_sim_config(), two_sites(100, 100));
  sim.begin_period();
  const std::array<std::size_t, 1> bogus{7};
  EXPECT_THROW(sim.drive_vehicle(bogus), std::invalid_argument);
  EXPECT_THROW((void)sim.rsu(7), std::invalid_argument);
}

TEST(VcpsSimulation, SameVehicleSameRsuIsIdempotentOnBits) {
  VcpsSimulation sim(vlm_sim_config(), two_sites(1000, 1000));
  sim.begin_period();
  const core::VehicleIdentity v{core::VehicleId{77}, 88};
  const std::array<std::size_t, 1> only_x{0};
  sim.drive_vehicle_as(v, only_x);
  const auto ones_after_first = sim.rsu(0).state().bits().count_ones();
  sim.drive_vehicle_as(v, only_x);
  EXPECT_EQ(sim.rsu(0).state().bits().count_ones(), ones_after_first);
  EXPECT_EQ(sim.rsu(0).state().counter(), 2u);
  // Each drive takes the next vehicle number, explicit identity or not.
  EXPECT_EQ(sim.vehicles_driven(), 2u);
}

TEST(VcpsSimulation, RequiresAtLeastOneSite) {
  EXPECT_THROW(VcpsSimulation(vlm_sim_config(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace vlm::vcps

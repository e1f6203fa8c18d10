// Determinism of the parallel ingest (drive_vehicles): per-RSU reports —
// bits AND counters — must be bit-identical for every worker count and
// to the serial drive_vehicle loop, loss-free or not. These suites are
// the TSan CI target (ctest -R "Parallel|Ingest").
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/visited_mask.h"
#include "core/scheme.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/simulation.h"

namespace vlm::vcps {
namespace {

constexpr std::size_t kRsus = 9;
constexpr std::uint64_t kVehicles = 6'000;

traffic::MultiRsuConfig workload_config() {
  traffic::MultiRsuConfig config;
  config.rsu_count = kRsus;
  config.vehicle_count = kVehicles;
  config.min_visits = 2;
  config.max_visits = 5;
  config.seed = 17;
  return config;
}

SimulationConfig sim_config(const ChannelConfig& channel) {
  SimulationConfig config;
  config.seed = 101;
  config.channel = channel;
  config.server.scheme = core::make_vlm_scheme({.s = 2, .load_factor = 8.0});
  return config;
}

std::vector<RsuSite> sites_for(traffic::MultiRsuWorkload& workload) {
  workload.for_each_vehicle(
      [](std::uint64_t, std::span<const std::uint32_t>) {});
  std::vector<RsuSite> sites;
  for (std::size_t r = 0; r < kRsus; ++r) {
    sites.push_back(RsuSite{
        core::RsuId{r + 1},
        static_cast<double>(workload.node_volumes()[r])});
  }
  return sites;
}

ItineraryProvider provider_for(const traffic::MultiRsuWorkload& workload) {
  return [&workload](std::uint64_t v, std::vector<std::size_t>& positions) {
    thread_local common::VisitedMask visited(0);
    thread_local std::vector<std::uint32_t> rsus;
    if (visited.universe_size() != kRsus) {
      visited = common::VisitedMask(kRsus);
    }
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
  };
}

// Runs one full period through drive_vehicles with `workers` threads.
std::unique_ptr<VcpsSimulation> run_parallel(
    const ChannelConfig& channel, const traffic::MultiRsuWorkload& workload,
    std::span<const RsuSite> sites, unsigned workers) {
  auto sim = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  sim->begin_period();
  const IngestStats stats =
      sim->drive_vehicles(kVehicles, provider_for(workload), workers);
  EXPECT_EQ(stats.vehicles, kVehicles);
  EXPECT_GT(stats.exchanges, 0u);
  sim->end_period();
  return sim;
}

// The same period through the one-vehicle-at-a-time serial API.
std::unique_ptr<VcpsSimulation> run_serial(
    const ChannelConfig& channel, const traffic::MultiRsuWorkload& workload,
    std::span<const RsuSite> sites) {
  auto serial = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  serial->begin_period();
  common::VisitedMask visited(kRsus);
  std::vector<std::uint32_t> rsus;
  std::vector<std::size_t> positions;
  for (std::uint64_t v = 0; v < kVehicles; ++v) {
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
    serial->drive_vehicle(positions);
  }
  serial->end_period();
  return serial;
}

void expect_reports_identical(const VcpsSimulation& a,
                              const VcpsSimulation& b) {
  ASSERT_EQ(a.rsu_count(), b.rsu_count());
  for (std::size_t r = 0; r < a.rsu_count(); ++r) {
    const RsuReport ra = a.rsu(r).make_report(a.current_period());
    const RsuReport rb = b.rsu(r).make_report(b.current_period());
    EXPECT_EQ(ra.counter, rb.counter) << "RSU " << r;
    EXPECT_EQ(ra.array_size, rb.array_size) << "RSU " << r;
    EXPECT_EQ(ra.bits, rb.bits) << "RSU " << r;
  }
}

TEST(ParallelIngest, ReportsBitIdenticalAcrossWorkerCountsLossyChannel) {
  // Lossy + duplicating channel: the hardest case, because every outcome
  // is a random draw. Per-(period, vehicle, RSU) hashed draws make the
  // outcome a pure function of the exchange, so every worker count must
  // produce the serial loop's bits, counters, and channel tallies.
  ChannelConfig channel;
  channel.query_loss = 0.15;
  channel.reply_loss = 0.1;
  channel.reply_duplicate = 0.08;
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);

  const auto reference = run_serial(channel, workload, sites);
  EXPECT_GT(reference->channel().queries_lost(), 0u);
  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    const auto parallel = run_parallel(channel, workload, sites, workers);
    expect_reports_identical(*reference, *parallel);
    EXPECT_EQ(parallel->vehicles_driven(), reference->vehicles_driven());
    EXPECT_EQ(parallel->channel().queries_lost(),
              reference->channel().queries_lost())
        << "workers " << workers;
    EXPECT_EQ(parallel->channel().replies_lost(),
              reference->channel().replies_lost())
        << "workers " << workers;
    EXPECT_EQ(parallel->channel().replies_duplicated(),
              reference->channel().replies_duplicated())
        << "workers " << workers;
  }
}

TEST(ParallelIngest, MatchesSerialDriveVehicleLoopWhenLossFree) {
  // The loss-free channel consumes no randomness on either path.
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  const auto serial = run_serial({}, workload, sites);
  for (const unsigned workers : {1u, 4u}) {
    const auto parallel = run_parallel({}, workload, sites, workers);
    expect_reports_identical(*serial, *parallel);
    EXPECT_EQ(parallel->vehicles_driven(), serial->vehicles_driven());
  }
}

TEST(ParallelIngest, ContinuesVehicleNumberingAcrossBatches) {
  // Two half-size batches must equal one full batch: the engine numbers
  // vehicles from the simulation's running counter, not from zero.
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  const ItineraryProvider provider = provider_for(workload);
  const ItineraryProvider second_half =
      [&provider](std::uint64_t v, std::vector<std::size_t>& positions) {
        provider(v + kVehicles / 2, positions);
      };

  auto whole = std::make_unique<VcpsSimulation>(sim_config({}), sites);
  whole->begin_period();
  whole->drive_vehicles(kVehicles, provider, 3);
  whole->end_period();

  auto split = std::make_unique<VcpsSimulation>(sim_config({}), sites);
  split->begin_period();
  split->drive_vehicles(kVehicles / 2, provider, 3);
  split->drive_vehicles(kVehicles - kVehicles / 2, second_half, 3);
  split->end_period();

  expect_reports_identical(*whole, *split);
}

TEST(ParallelIngest, MoreWorkersThanVehiclesIsSafe) {
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  auto sim = std::make_unique<VcpsSimulation>(sim_config({}), sites);
  sim->begin_period();
  const IngestStats stats = sim->drive_vehicles(3, provider_for(workload), 16);
  EXPECT_EQ(stats.vehicles, 3u);
  EXPECT_LE(stats.workers, 3u);
  sim->end_period();
}

TEST(ParallelIngest, ZeroVehiclesIsANoOp) {
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  auto sim = std::make_unique<VcpsSimulation>(sim_config({}), sites);
  sim->begin_period();
  const IngestStats stats = sim->drive_vehicles(0, provider_for(workload), 4);
  EXPECT_EQ(stats.vehicles, 0u);
  EXPECT_EQ(stats.exchanges, 0u);
  EXPECT_EQ(sim->vehicles_driven(), 0u);
  sim->end_period();
}

TEST(ParallelIngest, RequiresOpenPeriod) {
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  VcpsSimulation sim(sim_config({}), sites);
  EXPECT_THROW(sim.drive_vehicles(10, provider_for(workload), 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlm::vcps

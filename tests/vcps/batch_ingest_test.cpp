// Bit-identity of the columnar ingest engine behind drive_vehicles
// against the serial drive_vehicle loop — the acceptance gate of the
// staged SoA pipeline and of its owner pass, where each RSU's array is
// written by the one worker that owns it in a round. The serial loop
// draws the same hashed per-exchange channel outcomes, so it is the
// reference on lossy and duplicating channels too.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/visited_mask.h"
#include "core/pair_simulation.h"
#include "core/scheme.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/ingest_batch.h"
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

ChannelConfig lossy_channel() {
  ChannelConfig channel;
  channel.query_loss = 0.15;
  channel.reply_loss = 0.1;
  channel.reply_duplicate = 0.08;
  return channel;
}

std::vector<RsuSite> sites_for(traffic::MultiRsuWorkload& workload) {
  workload.for_each_vehicle(
      [](std::uint64_t, std::span<const std::uint32_t>) {});
  std::vector<RsuSite> sites;
  for (std::size_t r = 0; r < workload.config().rsu_count; ++r) {
    sites.push_back(RsuSite{core::RsuId{r + 1},
                            static_cast<double>(workload.node_volumes()[r])});
  }
  return sites;
}

ItineraryProvider provider_for(const traffic::MultiRsuWorkload& workload) {
  return [&workload](std::uint64_t v, std::vector<std::size_t>& positions) {
    thread_local common::VisitedMask visited(0);
    thread_local std::vector<std::uint32_t> rsus;
    if (visited.universe_size() != workload.config().rsu_count) {
      visited = common::VisitedMask(workload.config().rsu_count);
    }
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
  };
}

BulkItineraryProvider bulk_provider_for(
    const traffic::MultiRsuWorkload& workload) {
  return [&workload](std::uint64_t begin, std::uint64_t end,
                     common::UninitVector<std::uint32_t>& positions,
                     std::vector<std::uint64_t>& offsets,
                     std::vector<std::uint64_t>& counts) {
    thread_local common::VisitedMask visited(0);
    if (visited.universe_size() != workload.config().rsu_count) {
      visited = common::VisitedMask(workload.config().rsu_count);
    }
    workload.itineraries(begin, end, visited, positions, offsets, counts);
  };
}

// One period of the workload's vehicles through drive_vehicles.
std::unique_ptr<VcpsSimulation> run_batch(
    const ChannelConfig& channel, const traffic::MultiRsuWorkload& workload,
    std::span<const RsuSite> sites, unsigned workers,
    IngestStats* stats_out = nullptr) {
  auto sim = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  sim->begin_period();
  const std::uint64_t vehicles = workload.config().vehicle_count;
  const IngestStats stats =
      sim->drive_vehicles(vehicles, provider_for(workload), workers);
  EXPECT_EQ(stats.vehicles, vehicles);
  if (stats_out != nullptr) *stats_out = stats;
  sim->end_period();
  return sim;
}

// The same period through the one-vehicle-at-a-time serial API, the
// reference; `exchanges` receives the summed drive_vehicle returns.
std::unique_ptr<VcpsSimulation> run_serial_loop(
    const ChannelConfig& channel, const traffic::MultiRsuWorkload& workload,
    std::span<const RsuSite> sites, std::uint64_t& exchanges) {
  auto serial = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  serial->begin_period();
  common::VisitedMask visited(workload.config().rsu_count);
  std::vector<std::uint32_t> rsus;
  std::vector<std::size_t> positions;
  exchanges = 0;
  for (std::uint64_t v = 0; v < workload.config().vehicle_count; ++v) {
    workload.itinerary(v, visited, rsus);
    positions.assign(rsus.begin(), rsus.end());
    exchanges += serial->drive_vehicle(positions);
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

void expect_tallies_identical(const VcpsSimulation& a,
                              const VcpsSimulation& b) {
  EXPECT_EQ(a.channel().queries_lost(), b.channel().queries_lost());
  EXPECT_EQ(a.channel().replies_lost(), b.channel().replies_lost());
  EXPECT_EQ(a.channel().replies_duplicated(), b.channel().replies_duplicated());
}

// The oracle gate: drive_vehicles at every worker count must land the
// serial drive_vehicle loop's reports (bits and counters), exchange
// count, channel tallies and vehicle count over the same channel.
void expect_matches_serial_loop(const traffic::MultiRsuConfig& config,
                                const ChannelConfig& channel,
                                std::initializer_list<unsigned> worker_counts) {
  traffic::MultiRsuWorkload workload(config);
  const std::vector<RsuSite> sites = sites_for(workload);
  std::uint64_t serial_exchanges = 0;
  const auto serial = run_serial_loop(channel, workload, sites,
                                      serial_exchanges);
  ASSERT_GT(serial_exchanges, 0u);
  for (const unsigned workers : worker_counts) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    IngestStats stats;
    const auto batch = run_batch(channel, workload, sites, workers, &stats);
    EXPECT_EQ(stats.exchanges, serial_exchanges);
    expect_reports_identical(*serial, *batch);
    expect_tallies_identical(*serial, *batch);
    EXPECT_EQ(batch->vehicles_driven(), serial->vehicles_driven());
  }
}

TEST(BatchIngest, BitIdenticalToSerialLoopAcrossWorkerCountsLossyChannel) {
  // The whole point of the pipeline: for every worker count, it must
  // land exactly the bits, counters, exchange counts, AND channel
  // tallies of the per-vehicle loop under a lossy + duplicating channel.
  expect_matches_serial_loop(workload_config(), lossy_channel(),
                             {1u, 2u, 4u, 7u});
}

TEST(BatchIngest, MatchesSerialDriveVehicleLoopWhenLossFree) {
  // Loss-free channel: no draw happens on either path.
  expect_matches_serial_loop(workload_config(), {}, {1u, 4u});
}

TEST(BatchIngest, RoundsBitIdenticalAcrossWorkersLossyChannel) {
  // A round gives each worker at most 16384 vehicles, so 20000 vehicles
  // take two rounds on 1 worker (the second one partial) and one round
  // split into equal sub-slices on 2, 4 and 7. Every shape must land the
  // serial loop's exact bits, counters, exchange counts, and channel
  // tallies.
  traffic::MultiRsuConfig config = workload_config();
  config.vehicle_count = 20'000;
  expect_matches_serial_loop(config, lossy_channel(), {1u, 2u, 4u, 7u});
}

TEST(BatchIngest, OwnerPassTwoRsusSevenWorkers) {
  // K = 2 < workers: two owners, five workers that only encode.
  traffic::MultiRsuConfig config = workload_config();
  config.rsu_count = 2;
  config.min_visits = 1;
  config.max_visits = 2;
  for (const ChannelConfig& channel : {ChannelConfig{}, lossy_channel()}) {
    expect_matches_serial_loop(config, channel, {1u, 2u, 7u});
  }
}

TEST(BatchIngest, OwnerPassOneRsuOutweighsAWorkersShare) {
  // A steep popularity skew puts one RSU in almost every itinerary, so
  // it alone carries more than 1/workers of the exchanges, and at 7
  // workers the equal-exchange cut leaves the runs after it empty.
  traffic::MultiRsuConfig config = workload_config();
  config.zipf_exponent = 3.0;
  config.min_visits = 2;
  config.max_visits = 2;
  {
    traffic::MultiRsuWorkload workload(config);
    const std::vector<RsuSite> sites = sites_for(workload);
    const auto sim = run_batch({}, workload, sites, 4);
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < sim->rsu_count(); ++r) {
      total += sim->rsu(r).state().counter();
    }
    ASSERT_GT(sim->rsu(0).state().counter() * 4, total);
  }
  for (const ChannelConfig& channel : {ChannelConfig{}, lossy_channel()}) {
    expect_matches_serial_loop(config, channel, {1u, 2u, 4u, 7u});
  }
}

TEST(BatchIngest, OwnerPassPartialLastRound) {
  // 65539 vehicles: a partial last round on every worker count — 3
  // vehicles on 1, 2 and 4 workers (4 workers then encode only 3
  // sub-slices, so the fourth worker's columns still hold the previous
  // round's tuples and must be ignored), and one short round on 7.
  traffic::MultiRsuConfig config = workload_config();
  config.vehicle_count = 4 * 16384 + 3;
  for (const ChannelConfig& channel : {ChannelConfig{}, lossy_channel()}) {
    expect_matches_serial_loop(config, channel, {1u, 2u, 4u, 7u});
  }
}

TEST(BatchIngest, StageSecondsPopulatedOnBatchPathOnly) {
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);

  IngestStats stats;
  run_batch(lossy_channel(), workload, sites, 2, &stats);
  // Wall clocks tick: with 6000 vehicles every stage measures > 0.
  EXPECT_GT(stats.materialize_seconds, 0.0);
  EXPECT_GT(stats.hash_seconds, 0.0);
  EXPECT_GT(stats.channel_seconds, 0.0);
  EXPECT_GT(stats.scatter_seconds, 0.0);
}

TEST(BatchIngest, MaterializationReproducesSeedConfigItineraries) {
  // Golden snapshot of stage 1: materializing the seed-config workload
  // must bucket exactly the tuples a direct itinerary walk produces —
  // same vehicle numbers, same masked keys, same per-RSU order.
  traffic::MultiRsuWorkload workload(workload_config());
  const BulkItineraryProvider provider = bulk_provider_for(workload);
  constexpr std::uint64_t kSeed = 101;
  constexpr std::uint64_t kBase = 3;  // mid-period offsets must carry over
  constexpr std::size_t kSlice = 500;

  ExchangeColumns columns;
  materialize_exchanges(kSeed, kBase, 0, kSlice, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);

  std::vector<std::vector<std::uint64_t>> want_keys(kRsus);
  std::vector<std::vector<std::uint64_t>> want_numbers(kRsus);
  common::VisitedMask visited(kRsus);
  std::vector<std::uint32_t> rsus;
  std::uint64_t tuples = 0;
  for (std::size_t v = 0; v < kSlice; ++v) {
    const std::uint64_t vehicle_number = kBase + v + 1;
    const core::VehicleIdentity identity =
        core::synthetic_vehicle(kSeed, vehicle_number);
    workload.itinerary(v, visited, rsus);
    for (const std::uint32_t position : rsus) {
      want_keys[position].push_back(identity.masked_key());
      want_numbers[position].push_back(vehicle_number);
      ++tuples;
    }
  }
  ASSERT_GT(tuples, kSlice);  // min_visits = 2 guarantees multi-visit

  ASSERT_EQ(columns.buckets.size(), kRsus);
  for (std::size_t r = 0; r < kRsus; ++r) {
    const RsuExchangeBucket& bucket = columns.buckets[r];
    EXPECT_EQ(std::vector<std::uint64_t>(bucket.masked_keys.begin(),
                                         bucket.masked_keys.end()),
              want_keys[r])
        << "RSU " << r;
    EXPECT_EQ(std::vector<std::uint64_t>(bucket.vehicle_numbers.begin(),
                                         bucket.vehicle_numbers.end()),
              want_numbers[r])
        << "RSU " << r;
    EXPECT_TRUE(bucket.bit_indices.empty());
    EXPECT_TRUE(bucket.deliveries.empty());
  }
}

TEST(BatchIngest, ColumnsResetClearsStaleTuples) {
  // Reuse across periods: a second materialization of a shorter slice
  // must not leak tuples from the first.
  traffic::MultiRsuWorkload workload(workload_config());
  const BulkItineraryProvider provider = bulk_provider_for(workload);
  ExchangeColumns columns;
  materialize_exchanges(101, 0, 0, 400, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);
  std::size_t first = 0;
  for (const RsuExchangeBucket& bucket : columns.buckets) {
    first += bucket.masked_keys.size();
  }
  materialize_exchanges(101, 0, 0, 40, provider, kRsus,
                        /*with_vehicle_numbers=*/true, columns);
  std::size_t second = 0;
  for (const RsuExchangeBucket& bucket : columns.buckets) {
    second += bucket.masked_keys.size();
    EXPECT_EQ(bucket.masked_keys.size(), bucket.vehicle_numbers.size());
  }
  EXPECT_LT(second, first);
}

TEST(BatchIngest, BulkProviderMatchesPerVehicleProvider) {
  // The native CSR bulk form and the adapted per-vehicle form must be
  // indistinguishable end to end — same reports, same exchange counts,
  // same channel tallies.
  traffic::MultiRsuWorkload workload(workload_config());
  const std::vector<RsuSite> sites = sites_for(workload);
  const ChannelConfig channel = lossy_channel();

  IngestStats per_vehicle_stats;
  const auto per_vehicle =
      run_batch(channel, workload, sites, 2, &per_vehicle_stats);
  auto bulk = std::make_unique<VcpsSimulation>(sim_config(channel), sites);
  bulk->begin_period();
  const IngestStats bulk_stats =
      bulk->drive_vehicles(kVehicles, bulk_provider_for(workload), 2);
  bulk->end_period();
  EXPECT_EQ(bulk_stats.exchanges, per_vehicle_stats.exchanges);
  expect_reports_identical(*per_vehicle, *bulk);
  expect_tallies_identical(*per_vehicle, *bulk);
}

}  // namespace
}  // namespace vlm::vcps

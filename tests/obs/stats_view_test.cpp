// The legacy stats structs (DecodeStats, IngestStats, PipelineStats) are
// thin views over the metrics registry: both are fed the same increments
// at the same sites. These tests pin that equivalence — in a
// single-instance run, the registry delta across one call must equal the
// struct the call returned.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/visited_mask.h"
#include "core/od_matrix.h"
#include "core/rsu_state.h"
#include "core/scheme.h"
#include "obs/metrics.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/simulation.h"

namespace vlm {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

obs::HistogramSummary phase_summary(const char* name) {
  return obs::phase(name).summary();
}

TEST(MetricsStatsView, DecodeStatsEqualRegistryDelta) {
  constexpr std::size_t kRsus = 6;
  constexpr std::size_t kM = 1 << 12;
  std::vector<core::RsuState> states;
  for (std::size_t r = 0; r < kRsus; ++r) {
    core::RsuState state(kM);
    for (std::size_t i = 0; i < kM / 8; ++i) {
      state.record((i * (r + 3) * 2654435761u) % kM);
    }
    states.push_back(std::move(state));
  }

  const std::uint64_t runs_before = counter_value("decode/runs");
  const std::uint64_t pairs_before = counter_value("decode/pairs");
  const std::uint64_t words_before = counter_value("decode/words_scanned");
  const obs::HistogramSummary total_before = phase_summary("decode/total");

  core::DecodeStats stats;
  core::estimate_od_matrix(states, 2, 1.96, 1, &stats);

  EXPECT_EQ(counter_value("decode/runs") - runs_before, 1u);
  EXPECT_EQ(counter_value("decode/pairs") - pairs_before,
            stats.pairs_decoded);
  EXPECT_EQ(counter_value("decode/words_scanned") - words_before,
            stats.words_scanned);
  const obs::HistogramSummary total_after = phase_summary("decode/total");
  EXPECT_EQ(total_after.count - total_before.count, 1u);
  EXPECT_NEAR(total_after.total - total_before.total, stats.wall_seconds,
              1e-6);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.gauge("decode/workers").value(),
            static_cast<double>(stats.workers));
  EXPECT_EQ(registry.gauge("decode/tile_words").value(),
            static_cast<double>(stats.tile_words));
  EXPECT_EQ(std::string(registry.info("decode/path").value()), stats.path);
  EXPECT_EQ(std::string(registry.info("kernel/isa").value()),
            stats.kernel_isa);
}

// The pruned decode feeds its extra counters and phase span through the
// same sites as the struct fields, so the registry delta must match
// there too — and the prune counters must stay untouched by non-pruned
// runs (the call above added 0 to both).
TEST(MetricsStatsView, PrunedDecodeStatsEqualRegistryDelta) {
  constexpr std::size_t kRsus = 8;
  constexpr std::size_t kM = 1 << 12;
  std::vector<core::RsuState> states;
  for (std::size_t r = 0; r < kRsus; ++r) {
    core::RsuState state(kM);
    for (std::size_t i = 0; i < kM / 8; ++i) {
      state.record((i * (r + 3) * 2654435761u) % kM);
    }
    states.push_back(std::move(state));
  }

  const std::uint64_t pairs_before = counter_value("decode/pairs");
  const std::uint64_t pruned_before = counter_value("decode/pairs_pruned");
  const std::uint64_t survived_before =
      counter_value("decode/pairs_survived");
  const obs::HistogramSummary prune_before = phase_summary("decode/prune");

  core::DecodeOptions options;
  options.mode = core::DecodeMode::kPruned;
  options.prune.sample_stride = 2;
  options.prune.min_volume = 50.0;
  core::DecodeStats stats;
  core::estimate_od_matrix(states, 2, 1.96, options, &stats);

  EXPECT_EQ(counter_value("decode/pairs") - pairs_before,
            stats.pairs_decoded);
  EXPECT_EQ(counter_value("decode/pairs_pruned") - pruned_before,
            stats.pairs_pruned);
  EXPECT_EQ(counter_value("decode/pairs_survived") - survived_before,
            stats.pairs_survived);
  // The pin-aware expectations: a VLM_DECODE override to a non-pruned
  // path legitimately rewrites the mode, leaving the prune counters at
  // zero — the registry deltas above stay exact either way.
  if (const char* pin = std::getenv("VLM_DECODE");
      pin == nullptr || std::string(pin) == "pruned") {
    EXPECT_STREQ(stats.path, "pruned");
    EXPECT_EQ(stats.pairs_pruned + stats.pairs_survived,
              kRsus * (kRsus - 1) / 2);
    const obs::HistogramSummary prune_after = phase_summary("decode/prune");
    EXPECT_EQ(prune_after.count - prune_before.count, 1u);
    EXPECT_NEAR(prune_after.total - prune_before.total, stats.prune_seconds,
                1e-6);
    EXPECT_EQ(std::string(obs::MetricsRegistry::global()
                              .info("decode/path")
                              .value()),
              "pruned");
  }
}

TEST(MetricsStatsView, IngestAndPipelineStatsEqualRegistryDelta) {
  constexpr std::size_t kRsus = 5;
  constexpr std::uint64_t kVehicles = 3'000;
  traffic::MultiRsuConfig workload_config;
  workload_config.rsu_count = kRsus;
  workload_config.vehicle_count = kVehicles;
  workload_config.min_visits = 2;
  workload_config.max_visits = 4;
  workload_config.seed = 23;
  traffic::MultiRsuWorkload workload(workload_config);
  workload.for_each_vehicle(
      [](std::uint64_t, std::span<const std::uint32_t>) {});

  vcps::SimulationConfig config;
  config.seed = 23;
  config.server.scheme = core::make_vlm_scheme({.s = 2, .load_factor = 8.0});
  std::vector<vcps::RsuSite> sites;
  for (std::size_t r = 0; r < kRsus; ++r) {
    sites.push_back(vcps::RsuSite{
        core::RsuId{r + 1},
        static_cast<double>(workload.node_volumes()[r])});
  }
  const vcps::ItineraryProvider itinerary =
      [&workload](std::uint64_t v, std::vector<std::size_t>& positions) {
        thread_local common::VisitedMask visited(0);
        thread_local std::vector<std::uint32_t> rsus;
        if (visited.universe_size() != kRsus) {
          visited = common::VisitedMask(kRsus);
        }
        workload.itinerary(v, visited, rsus);
        positions.assign(rsus.begin(), rsus.end());
      };

  const std::uint64_t vehicles_before = counter_value("ingest/vehicles");
  const std::uint64_t exchanges_before = counter_value("ingest/exchanges");
  const std::uint64_t reports_before = counter_value("server/reports_ingested");
  const obs::HistogramSummary ingest_before = phase_summary("period/ingest");
  const obs::HistogramSummary merge_before = phase_summary("ingest/shard_merge");
  const obs::HistogramSummary close_before = phase_summary("period/close");

  vcps::VcpsSimulation sim(config, sites);
  sim.begin_period();
  const vcps::IngestStats stats = sim.drive_vehicles(kVehicles, itinerary, 2);
  sim.end_period();

  EXPECT_EQ(counter_value("ingest/vehicles") - vehicles_before,
            stats.vehicles);
  EXPECT_EQ(counter_value("ingest/exchanges") - exchanges_before,
            stats.exchanges);

  const obs::HistogramSummary ingest_after = phase_summary("period/ingest");
  EXPECT_EQ(ingest_after.count - ingest_before.count, 1u);
  EXPECT_NEAR(ingest_after.total - ingest_before.total, stats.seconds, 1e-6);
  // One owner-pass wall time per call.
  EXPECT_EQ(phase_summary("ingest/shard_merge").count - merge_before.count, 1u);

  // PipelineStats: end_period ingests one report per RSU, and the span
  // covering it records exactly once.
  const vcps::PipelineStats& pipeline = sim.server().stats();
  EXPECT_EQ(pipeline.reports_ingested, kRsus);
  EXPECT_EQ(pipeline.reports_quarantined, 0u);
  EXPECT_EQ(counter_value("server/reports_ingested") - reports_before, kRsus);
  EXPECT_EQ(phase_summary("period/close").count - close_before.count, 1u);
}

}  // namespace
}  // namespace vlm

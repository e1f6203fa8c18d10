#include "vcps/simulation.h"

#include <algorithm>
#include <array>

#include "common/env_override.h"
#include "common/hashing.h"
#include "common/kernels/kernels.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "common/require.h"
#include "core/pair_simulation.h"
#include "obs/clock.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vcps/ingest_batch.h"
#include "vcps/vehicle.h"

namespace vlm::vcps {

namespace {
constexpr std::uint64_t kCertLifetimePeriods = 1'000'000;

// Ingest-side metrics. IngestStats is the per-call view over these atoms
// (same increments, same sites — a test pins the equivalence). All
// handles register together on the first period, so the exported key set
// is identical for every worker count: the per-worker encode time lands
// in ONE histogram whose count is the number of workers, never in
// per-worker keys. The four stage histograms record only on the batch
// path (one sample per worker per stage).
struct IngestMetrics {
  obs::Counter& vehicles;
  obs::Counter& exchanges;
  obs::Counter& queries_lost;
  obs::Counter& replies_lost;
  obs::Counter& replies_duplicated;
  obs::Info& kernel_isa;
  obs::Info& ingest_path;
  obs::Histogram& period_begin;   // begin_period(): sizing + RSU resets
  obs::Histogram& period_ingest;  // one whole drive_vehicles() call
  obs::Histogram& period_close;   // end_period(): reports into the server
  obs::Histogram& encode_worker;  // per-worker protocol/encode slice time
  obs::Histogram& shard_merge;    // OR-merging worker shards into RSUs
  obs::Histogram& stage_materialize;  // batch stage 1 per worker
  obs::Histogram& stage_hash;         // batch stage 2 per worker
  obs::Histogram& stage_channel;      // batch stage 3 per worker
  obs::Histogram& stage_scatter;      // batch stage 4 per worker
  // Per-worker wall time of the overlap schedule's sub-slice loop
  // (records only under PipelineMode::kOverlap — the off schedule has
  // no such loop).
  obs::Histogram& pipeline_overlap;
};

IngestMetrics& ingest_metrics() {
  static IngestMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new IngestMetrics{r.counter("ingest/vehicles"),
                             r.counter("ingest/exchanges"),
                             r.counter("channel/queries_lost"),
                             r.counter("channel/replies_lost"),
                             r.counter("channel/replies_duplicated"),
                             r.info("kernel/isa"),
                             r.info("ingest/path"),
                             obs::phase("period/begin"),
                             obs::phase("period/ingest"),
                             obs::phase("period/close"),
                             obs::phase("ingest/encode_worker"),
                             obs::phase("ingest/shard_merge"),
                             obs::phase("ingest/materialize"),
                             obs::phase("ingest/hash"),
                             obs::phase("ingest/channel"),
                             obs::phase("ingest/scatter"),
                             obs::phase("ingest/pipeline_overlap")};
  }();
  return *metrics;
}

// VLM_INGEST=scalar|batch|auto steers how IngestMode::kAuto resolves
// (parsed once, warn-and-keep on an unrecognized value, like
// VLM_DECODE). Unlike VLM_DECODE it does NOT override an explicitly
// requested engine: the bit-identity suites pin kScalar and kBatch
// side by side and assert per-engine stats, so a process-wide forced
// engine would make them compare an engine against itself. CI jobs that
// pin VLM_INGEST therefore steer every default-mode caller (tools,
// servers) while the explicit A/B gates keep testing both engines.
IngestMode apply_env_override(IngestMode mode) {
  static constexpr common::EnvEnumChoice kChoices[] = {
      {"scalar", static_cast<int>(IngestMode::kScalar)},
      {"batch", static_cast<int>(IngestMode::kBatch)},
      {"auto", static_cast<int>(IngestMode::kAuto)}};
  static const int parsed = common::parse_env_enum("VLM_INGEST", kChoices, -1);
  if (mode != IngestMode::kAuto || parsed < 0) return mode;
  return static_cast<IngestMode>(parsed);
}

// VLM_INGEST_PIPELINE=off|overlap|auto steers how PipelineMode::kAuto
// resolves, with the same explicit-request-wins rule as VLM_INGEST (the
// pipeline suites pin kOff and kOverlap side by side).
PipelineMode apply_pipeline_override(PipelineMode pipeline) {
  static constexpr common::EnvEnumChoice kChoices[] = {
      {"off", static_cast<int>(PipelineMode::kOff)},
      {"overlap", static_cast<int>(PipelineMode::kOverlap)},
      {"auto", static_cast<int>(PipelineMode::kAuto)}};
  static const int parsed =
      common::parse_env_enum("VLM_INGEST_PIPELINE", kChoices, -1);
  if (pipeline != PipelineMode::kAuto || parsed < 0) return pipeline;
  return static_cast<PipelineMode>(parsed);
}

// Vehicles per pipelined sub-slice. Sized so one sub-slice's exchange
// tuples (~3 visits x 16-24 bytes per vehicle) plus the itinerary CSR
// stay comfortably inside a per-core L2, which is the whole point of the
// overlap schedule.
constexpr std::size_t kPipelineSubSlice = 16384;

// Adapts the per-vehicle itinerary form to the bulk CSR form both ingest
// engines consume. Pays the per-vehicle function call the bulk form
// avoids — callers that can produce CSR natively should pass it directly.
BulkItineraryProvider adapt_itinerary(const ItineraryProvider& itinerary,
                                      std::size_t rsu_count) {
  return [&itinerary, rsu_count](std::uint64_t begin, std::uint64_t end,
                                 common::UninitVector<std::uint32_t>& positions,
                                 std::vector<std::uint64_t>& offsets,
                                 std::vector<std::uint64_t>& counts) {
    std::vector<std::size_t> scratch;
    positions.clear();
    offsets.clear();
    offsets.reserve(static_cast<std::size_t>(end - begin) + 1);
    offsets.push_back(0);
    counts.assign(rsu_count, 0);
    for (std::uint64_t v = begin; v < end; ++v) {
      itinerary(v, scratch);
      for (const std::size_t position : scratch) {
        VLM_REQUIRE(position < rsu_count, "RSU position out of range");
        positions.push_back(static_cast<std::uint32_t>(position));
        ++counts[position];
      }
      offsets.push_back(positions.size());
    }
  };
}
}  // namespace

VcpsSimulation::VcpsSimulation(const SimulationConfig& config,
                               std::span<const RsuSite> sites)
    : ca_(config.ca_master_secret),
      server_(config.server),
      channel_(config.channel, common::mix64(config.seed ^ 0xC4A22E1ull)),
      seed_(config.seed) {
  VLM_REQUIRE(!sites.empty(), "simulation needs at least one RSU site");
  rsus_.reserve(sites.size());
  for (const RsuSite& site : sites) {
    server_.register_rsu(site.id, site.initial_history_volume);
    rsus_.emplace_back(site.id, ca_.issue(site.id, kCertLifetimePeriods),
                       server_.array_size_for(site.id));
  }
}

const Rsu& VcpsSimulation::rsu(std::size_t position) const {
  VLM_REQUIRE(position < rsus_.size(), "RSU position out of range");
  return rsus_[position];
}

void VcpsSimulation::begin_period() {
  const obs::Span span(ingest_metrics().period_begin);
  ++period_;
  server_.begin_period(period_);
  for (Rsu& rsu : rsus_) {
    rsu.begin_period(server_.array_size_for(rsu.id()));
  }
  period_open_ = true;
}

std::size_t VcpsSimulation::drive_vehicle(
    std::span<const std::size_t> rsu_positions) {
  const std::uint64_t n = ++vehicles_driven_;
  return drive_vehicle_as(core::synthetic_vehicle(seed_, n), rsu_positions);
}

std::size_t VcpsSimulation::drive_vehicle_as(
    const core::VehicleIdentity& identity,
    std::span<const std::size_t> rsu_positions) {
  VLM_REQUIRE(period_open_, "begin_period() before driving vehicles");
  Vehicle vehicle(identity, encoder(), ca_,
                  common::mix64(identity.masked_key() ^ period_));
  std::size_t exchanges = 0;
  for (std::size_t position : rsu_positions) {
    VLM_REQUIRE(position < rsus_.size(), "RSU position out of range");
    Rsu& rsu = rsus_[position];
    if (!channel_.query_delivered()) continue;
    const auto reply = vehicle.handle_query(rsu.make_query(period_));
    if (!reply.has_value()) continue;
    const int deliveries = channel_.deliveries_for_reply();
    for (int d = 0; d < deliveries; ++d) {
      if (rsu.handle_reply(*reply)) ++exchanges;
    }
  }
  return exchanges;
}

IngestStats VcpsSimulation::drive_vehicles(std::uint64_t count,
                                           const ItineraryProvider& itinerary,
                                           unsigned workers, IngestMode mode,
                                           PipelineMode pipeline) {
  return drive_vehicles(count, adapt_itinerary(itinerary, rsus_.size()),
                        workers, mode, pipeline);
}

IngestStats VcpsSimulation::drive_vehicles(
    std::uint64_t count, const BulkItineraryProvider& itineraries,
    unsigned workers, IngestMode mode, PipelineMode pipeline) {
  VLM_REQUIRE(period_open_, "begin_period() before driving vehicles");
  IngestMetrics& metrics = ingest_metrics();
  obs::Span ingest_span(metrics.period_ingest);
  const std::uint64_t pool_before =
      common::WorkerPool::instance().dispatch_count();
  const unsigned used = workers == 0 ? common::default_worker_count() : workers;
  const std::uint64_t base = vehicles_driven_;
  const std::size_t rsu_count = rsus_.size();
  IngestMode resolved = apply_env_override(mode);
  if (resolved == IngestMode::kAuto) resolved = IngestMode::kBatch;
  const bool batch = resolved == IngestMode::kBatch;
  PipelineMode schedule = apply_pipeline_override(pipeline);
  if (schedule == PipelineMode::kAuto) schedule = PipelineMode::kOverlap;
  const bool overlap = batch && schedule == PipelineMode::kOverlap;

  // Worker-local state: one RsuState shard per (worker, RSU) — bits plus
  // counter — a failure tally, a malformed-reply count per RSU, and an
  // exchange count. Nothing shared is written until the join.
  const unsigned shard_count = static_cast<unsigned>(
      std::min<std::uint64_t>(used, count == 0 ? 1 : count));
  std::vector<std::vector<core::RsuState>> shards;
  std::vector<std::vector<std::uint64_t>> invalid(
      shard_count, std::vector<std::uint64_t>(rsu_count, 0));
  std::vector<ChannelTally> tallies(shard_count);
  std::vector<std::uint64_t> exchanges(shard_count, 0);
  shards.reserve(shard_count);
  for (unsigned w = 0; w < shard_count; ++w) {
    std::vector<core::RsuState> shard;
    shard.reserve(rsu_count);
    for (const Rsu& rsu : rsus_) {
      shard.emplace_back(rsu.state().array_size());
    }
    shards.push_back(std::move(shard));
  }

  IngestStats stats;
  stats.path = batch ? "batch" : "scalar";
  stats.pipeline = overlap ? "overlap" : "off";

  if (!batch) {
    // Reference engine: the per-vehicle object loop, one exchange at a
    // time. The batch pipeline below must land bit-identical shards.
    common::parallel_slices(
        static_cast<std::size_t>(count), used,
        [&](unsigned worker, std::size_t begin, std::size_t end) {
          const obs::Span encode_span(metrics.encode_worker);
          std::vector<core::RsuState>& shard = shards[worker];
          ChannelTally& tally = tallies[worker];
          common::UninitVector<std::uint32_t> positions;
          std::vector<std::uint64_t> offsets;
          std::vector<std::uint64_t> counts;  // unused by this engine
          itineraries(begin, end, positions, offsets, counts);
          VLM_REQUIRE(offsets.size() == end - begin + 1,
                      "bulk itinerary provider produced a malformed CSR");
          for (std::size_t v = begin; v < end; ++v) {
            // Same numbering as the serial drive_vehicle counter, so the
            // vehicle identities — and therefore the bits — are the same
            // population regardless of how the ingest is driven.
            const std::uint64_t vehicle_number = base + v + 1;
            const core::VehicleIdentity identity =
                core::synthetic_vehicle(seed_, vehicle_number);
            Vehicle vehicle(identity, encoder(), ca_,
                            common::mix64(identity.masked_key() ^ period_));
            for (std::uint64_t o = offsets[v - begin];
                 o < offsets[v - begin + 1]; ++o) {
              const std::uint32_t position = positions[o];
              VLM_REQUIRE(position < shard.size(), "RSU position out of range");
              const Rsu& rsu = rsus_[position];
              if (!channel_.query_delivered_for(period_, vehicle_number,
                                                rsu.id(), tally)) {
                continue;
              }
              const auto reply = vehicle.handle_query(rsu.make_query(period_));
              if (!reply.has_value()) continue;
              const int deliveries = channel_.deliveries_for_reply_for(
                  period_, vehicle_number, rsu.id(), tally);
              for (int d = 0; d < deliveries; ++d) {
                if (reply->bit_index >= shard[position].array_size()) {
                  ++invalid[worker][position];
                } else {
                  shard[position].record(reply->bit_index);
                  ++exchanges[worker];
                }
              }
            }
          }
        });
  } else {
    // Columnar engine: hoist the per-RSU constants (validated encode
    // target; whether a vehicle would answer the query at all — the
    // certificate/size checks are vehicle-independent), then run the
    // four SoA stages per worker slice. See ingest_batch.h for the
    // hash-domain invariant that keeps this bit-identical to the loop
    // above.
    std::vector<RsuIngestContext> contexts;
    contexts.reserve(rsu_count);
    for (const Rsu& rsu : rsus_) {
      const Query query = rsu.make_query(period_);
      const bool answered = ca_.verify(query.certificate, query.period) &&
                            query.certificate.subject == query.rsu &&
                            common::is_power_of_two(query.array_size);
      contexts.push_back(RsuIngestContext{
          rsu.id(), core::EncodeTarget(rsu.state().array_size()), answered});
    }
    // Two ExchangeColumns per worker: the overlap schedule materializes
    // sub-slice k + 1 into one while draining the other; the off
    // schedule only ever touches [0].
    std::vector<std::array<ExchangeColumns, 2>> columns(shard_count);
    struct StageSeconds {
      double materialize = 0.0, hash = 0.0, channel = 0.0, scatter = 0.0;
      double pipeline = 0.0;
    };
    std::vector<StageSeconds> stage(shard_count);
    common::parallel_slices(
        static_cast<std::size_t>(count), used,
        [&](unsigned worker, std::size_t begin, std::size_t end) {
          const obs::Span encode_span(metrics.encode_worker);
          StageSeconds& secs = stage[worker];
          // Stage bodies accumulate seconds across however many
          // sub-slices the schedule runs; each stage histogram then gets
          // ONE observation per worker (below) whichever schedule ran,
          // so the exported key set and sample counts match across
          // modes.
          // Each stage body is also a flight-recorder scope per
          // sub-slice: the histograms keep one observation per worker,
          // the trace shows every individual sub-slice iteration.
          const auto materialize = [&](std::size_t b, std::size_t e,
                                       ExchangeColumns& cols) {
            const obs::trace::TraceScope scope("ingest/materialize");
            const obs::Stopwatch watch;
            materialize_exchanges(seed_, base, b, e, itineraries, rsu_count,
                                  !channel_.lossless(), cols);
            secs.materialize += watch.seconds();
          };
          const auto drain = [&](ExchangeColumns& cols) {
            obs::Stopwatch watch;
            {
              const obs::trace::TraceScope scope("ingest/hash");
              hash_bit_indices(encoder(), contexts, cols);
            }
            secs.hash += watch.seconds();
            watch.restart();
            {
              const obs::trace::TraceScope scope("ingest/channel");
              draw_channel_outcomes(channel_, period_, contexts, cols,
                                    tallies[worker]);
            }
            secs.channel += watch.seconds();
            watch.restart();
            {
              const obs::trace::TraceScope scope("ingest/scatter");
              exchanges[worker] +=
                  scatter_into_shards(contexts, cols, shards[worker]);
            }
            secs.scatter += watch.seconds();
          };
          if (!overlap) {
            materialize(begin, end, columns[worker][0]);
            drain(columns[worker][0]);
          } else {
            // Software pipeline: prologue-materialize sub-slice 0, then
            // alternate buffers so each drain consumes tuples written
            // immediately before it (still cache-resident) while the
            // other buffer is refilled for the next iteration. Stage
            // order per sub-slice is unchanged and sub-slices drain in
            // ascending vehicle order, so every bucket's record_bulk
            // stream is the off schedule's stream cut into chunks —
            // bit-identical shards.
            obs::Span loop_span(metrics.pipeline_overlap);
            materialize(begin, std::min(begin + kPipelineSubSlice, end),
                        columns[worker][0]);
            unsigned current = 0;
            for (std::size_t b = begin; b < end; b += kPipelineSubSlice) {
              const std::size_t next_b = b + kPipelineSubSlice;
              if (next_b < end) {
                materialize(next_b, std::min(next_b + kPipelineSubSlice, end),
                            columns[worker][current ^ 1]);
              }
              drain(columns[worker][current]);
              current ^= 1;
            }
            secs.pipeline = loop_span.finish();
          }
          const auto nanos = [](double seconds) {
            return static_cast<std::uint64_t>(seconds * 1e9);
          };
          metrics.stage_materialize.observe(nanos(secs.materialize));
          metrics.stage_hash.observe(nanos(secs.hash));
          metrics.stage_channel.observe(nanos(secs.channel));
          metrics.stage_scatter.observe(nanos(secs.scatter));
        });
    for (const StageSeconds& secs : stage) {
      stats.materialize_seconds += secs.materialize;
      stats.hash_seconds += secs.hash;
      stats.channel_seconds += secs.channel;
      stats.scatter_seconds += secs.scatter;
      stats.pipeline_seconds += secs.pipeline;
    }
  }

  // Period close: OR-merge every worker's shards into the real RSUs and
  // sum the tallies. All merges commute, so the result is independent of
  // worker count and merge order.
  {
    const obs::Span merge_span(metrics.shard_merge);
    for (std::size_t r = 0; r < rsu_count; ++r) {
      for (unsigned w = 0; w < shard_count; ++w) {
        rsus_[r].absorb_shard(shards[w][r], invalid[w][r]);
      }
    }
  }
  ChannelTally lost;
  for (unsigned w = 0; w < shard_count; ++w) {
    channel_.absorb(tallies[w]);
    lost.queries_lost += tallies[w].queries_lost;
    lost.replies_lost += tallies[w].replies_lost;
    lost.replies_duplicated += tallies[w].replies_duplicated;
    stats.exchanges += exchanges[w];
  }
  vehicles_driven_ += count;
  stats.vehicles = count;
  stats.workers = shard_count;
  stats.kernel_isa = common::kernels::active_name();
  stats.pool_lifetime_dispatches =
      common::WorkerPool::instance().dispatch_count();
  stats.pool_dispatches = stats.pool_lifetime_dispatches - pool_before;

  // Mirror the per-call stats into the registry — same values, same
  // site, so a registry delta across one call equals the struct.
  metrics.vehicles.add(count);
  metrics.exchanges.add(stats.exchanges);
  metrics.queries_lost.add(lost.queries_lost);
  metrics.replies_lost.add(lost.replies_lost);
  metrics.replies_duplicated.add(lost.replies_duplicated);
  metrics.kernel_isa.set(stats.kernel_isa);
  metrics.ingest_path.set(stats.path);
  stats.seconds = ingest_span.finish();
  return stats;
}

void VcpsSimulation::end_period() {
  VLM_REQUIRE(period_open_, "no open period to end");
  const obs::Span span(ingest_metrics().period_close);
  for (const Rsu& rsu : rsus_) {
    server_.ingest(rsu.make_report(period_));
  }
  // Period-close estimator health (inside the close span — the span
  // tiling gate budgets it as part of closing the period): saturation
  // and load-factor drift over the fleet's just-reported states.
  obs::health::HealthOptions health_options;
  health_options.target_load_factor = scheme().target_load_factor();
  std::vector<const core::RsuState*> states;
  states.reserve(rsus_.size());
  for (const Rsu& rsu : rsus_) states.push_back(&rsu.state());
  last_health_ = obs::health::assess_rsus(
      std::span<const core::RsuState* const>(states), health_options);
  period_open_ = false;
}

core::PairEstimate VcpsSimulation::estimate(std::size_t position_a,
                                            std::size_t position_b) const {
  return server_.estimate(rsu(position_a).id(), rsu(position_b).id());
}

}  // namespace vlm::vcps

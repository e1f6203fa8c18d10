#include "vcps/simulation.h"

#include <algorithm>
#include <span>

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
// per-worker keys. The four stage histograms record one sample per
// worker, or per owner for scatter, per drive_vehicles call.
struct IngestMetrics {
  obs::Counter& vehicles;
  obs::Counter& exchanges;
  obs::Counter& queries_lost;
  obs::Counter& replies_lost;
  obs::Counter& replies_duplicated;
  obs::Info& kernel_isa;
  obs::Histogram& period_begin;   // begin_period(): sizing + RSU resets
  obs::Histogram& period_ingest;  // one whole drive_vehicles() call
  obs::Histogram& period_close;   // end_period(): reports into the server
  obs::Histogram& encode_worker;  // per-worker encode time of one call
  // One per call: the wall time of the owner passes (all rounds).
  obs::Histogram& shard_merge;
  obs::Histogram& stage_materialize;  // stage 1 per worker
  obs::Histogram& stage_hash;         // stage 2 per worker
  obs::Histogram& stage_channel;      // stage 3 per worker
  obs::Histogram& stage_scatter;      // stage 4 per owner
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
                             obs::phase("period/begin"),
                             obs::phase("period/ingest"),
                             obs::phase("period/close"),
                             obs::phase("ingest/encode_worker"),
                             obs::phase("ingest/shard_merge"),
                             obs::phase("ingest/materialize"),
                             obs::phase("ingest/hash"),
                             obs::phase("ingest/channel"),
                             obs::phase("ingest/scatter")};
  }();
  return *metrics;
}

std::uint64_t nanos(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

// Vehicles per worker per ingest round. Sized so one sub-slice's
// exchange tuples (~3 visits x 16-25 bytes per vehicle) plus the
// itinerary CSR stay comfortably inside a per-core L2, so the hash and
// channel stages read tuples materialize just wrote, and the owners'
// scatter reads them back from the last-level cache.
constexpr std::size_t kRoundSubSlice = 16384;

// Cuts RSU positions [0, K) into `runs` contiguous runs of about equal
// weight, run o being [cuts[o], cuts[o + 1]). `prefix` holds the K + 1
// running totals of the per-RSU weights. Runs hold whole RSUs, so one
// outweighing its share leaves a neighbouring run empty. The cuts are a
// pure function of the weights.
void cut_runs(std::span<const std::uint64_t> prefix, unsigned runs,
              std::vector<std::size_t>& cuts) {
  cuts.assign(runs + 1, prefix.size() - 1);
  for (unsigned o = 0; o < runs; ++o) {
    // Run o starts at the first RSU whose running total reaches o shares.
    const std::uint64_t share = prefix.back() * o / runs;
    cuts[o] = static_cast<std::size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), share) -
        prefix.begin());
  }
}

// Adapts the per-vehicle itinerary form to the bulk CSR form the ingest
// engine consumes. Pays the per-vehicle function call the bulk form
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

VcpsSimulation::~VcpsSimulation() = default;

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
  const std::uint64_t n = vehicles_driven_ + 1;
  return drive_numbered(n, core::synthetic_vehicle(seed_, n), rsu_positions);
}

std::size_t VcpsSimulation::drive_vehicle_as(
    const core::VehicleIdentity& identity,
    std::span<const std::size_t> rsu_positions) {
  return drive_numbered(vehicles_driven_ + 1, identity, rsu_positions);
}

std::size_t VcpsSimulation::drive_numbered(
    std::uint64_t vehicle_number, const core::VehicleIdentity& identity,
    std::span<const std::size_t> rsu_positions) {
  VLM_REQUIRE(period_open_, "begin_period() before driving vehicles");
  vehicles_driven_ = vehicle_number;
  Vehicle vehicle(identity, encoder(), ca_,
                  common::mix64(identity.masked_key() ^ period_));
  ChannelTally tally;
  std::size_t exchanges = 0;
  for (std::size_t position : rsu_positions) {
    VLM_REQUIRE(position < rsus_.size(), "RSU position out of range");
    Rsu& rsu = rsus_[position];
    if (!channel_.query_delivered_for(period_, vehicle_number, rsu.id(),
                                      tally)) {
      continue;
    }
    const auto reply = vehicle.handle_query(rsu.make_query(period_));
    if (!reply.has_value()) continue;
    const int deliveries = channel_.deliveries_for_reply_for(
        period_, vehicle_number, rsu.id(), tally);
    for (int d = 0; d < deliveries; ++d) {
      if (rsu.handle_reply(*reply)) ++exchanges;
    }
  }
  channel_.absorb(tally);
  return exchanges;
}

IngestStats VcpsSimulation::drive_vehicles(std::uint64_t count,
                                           const ItineraryProvider& itinerary,
                                           unsigned workers) {
  return drive_vehicles(count, adapt_itinerary(itinerary, rsus_.size()),
                        workers);
}

IngestStats VcpsSimulation::drive_vehicles(
    std::uint64_t count, const BulkItineraryProvider& itineraries,
    unsigned workers) {
  VLM_REQUIRE(period_open_, "begin_period() before driving vehicles");
  IngestMetrics& metrics = ingest_metrics();
  obs::Span ingest_span(metrics.period_ingest);
  const std::uint64_t pool_before =
      common::WorkerPool::instance().dispatch_count();
  const unsigned requested =
      workers == 0 ? common::default_worker_count() : workers;

  IngestStats stats;
  stats.workers = static_cast<unsigned>(
      std::min<std::uint64_t>(requested, count == 0 ? 1 : count));
  // One channel tally per worker; the draws are hashed per exchange, so
  // only their sums matter.
  std::vector<ChannelTally> tallies(stats.workers);
  stats.exchanges = ingest_rounds(count, itineraries, tallies, stats);

  ChannelTally lost;
  for (const ChannelTally& tally : tallies) {
    channel_.absorb(tally);
    lost.queries_lost += tally.queries_lost;
    lost.replies_lost += tally.replies_lost;
    lost.replies_duplicated += tally.replies_duplicated;
  }
  vehicles_driven_ += count;
  stats.vehicles = count;
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
  stats.seconds = ingest_span.finish();
  return stats;
}

std::uint64_t VcpsSimulation::ingest_rounds(
    std::uint64_t count, const BulkItineraryProvider& itineraries,
    std::span<ChannelTally> tallies, IngestStats& stats) {
  IngestMetrics& metrics = ingest_metrics();
  const auto workers = static_cast<unsigned>(tallies.size());
  const std::uint64_t base = vehicles_driven_;
  const std::size_t rsu_count = rsus_.size();
  const bool lossy = !channel_.lossless();

  // Hoist the per-RSU constants: the validated encode target, and whether
  // a vehicle would answer the query at all (the certificate and size
  // checks are vehicle-independent). See ingest_batch.h for the
  // hash-domain invariant that keeps this bit-identical to drive_vehicle.
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
  if (columns_.size() < workers) columns_.resize(workers);

  // Stage seconds and recorded exchanges, summed over the rounds: index w
  // is worker w in region 1 and owner w in region 2.
  struct WorkerTotals {
    double materialize = 0.0, hash = 0.0, channel = 0.0, scatter = 0.0;
    std::uint64_t exchanges = 0;
  };
  std::vector<WorkerTotals> totals(workers);
  const auto owners =
      static_cast<unsigned>(std::min<std::size_t>(workers, rsu_count));
  std::vector<std::uint64_t> prefix(rsu_count + 1, 0);
  std::vector<std::size_t> cuts;
  double owner_seconds = 0.0;

  // Each round is two pool regions with no barrier inside either: a
  // region may run more logical workers than the pool has threads, as
  // serial task slots.
  const std::uint64_t round_size = std::uint64_t{workers} * kRoundSubSlice;
  for (std::uint64_t round = 0; round < count; round += round_size) {
    const std::uint64_t vehicles = std::min(round_size, count - round);
    const auto slices =
        static_cast<unsigned>(std::min<std::uint64_t>(workers, vehicles));

    // Region 1: worker w materializes, hashes and draws the channel for
    // the w-th of `slices` equal sub-slices, into its own columns.
    common::parallel_for(slices, slices, [&](std::size_t w) {
      const std::uint64_t begin = round + vehicles * w / slices;
      const std::uint64_t end = round + vehicles * (w + 1) / slices;
      ExchangeColumns& columns = columns_[w];
      WorkerTotals& t = totals[w];
      obs::Stopwatch watch;
      {
        const obs::trace::TraceScope scope("ingest/materialize");
        materialize_exchanges(seed_, base, begin, end, itineraries,
                              rsu_count, lossy, columns);
      }
      t.materialize += watch.seconds();
      watch.restart();
      {
        const obs::trace::TraceScope scope("ingest/hash");
        hash_bit_indices(encoder(), contexts, columns);
      }
      t.hash += watch.seconds();
      watch.restart();
      {
        const obs::trace::TraceScope scope("ingest/channel");
        draw_channel_outcomes(channel_, period_, contexts, columns,
                              tallies[w]);
      }
      t.channel += watch.seconds();
    });

    // Region 2: cut the RSUs, in position order, into runs of about
    // equal exchange count from this round's bucket sizes. Each run's
    // owner scatters every worker's bucket of its RSUs, so each array
    // has one writer. After the call's last round the owner also
    // flushes its RSUs' deferred ones counts, so the period close reads
    // clean counts.
    for (std::size_t r = 0; r < rsu_count; ++r) {
      std::uint64_t weight = 0;
      for (unsigned w = 0; w < slices; ++w) {
        weight += columns_[w].buckets[r].bit_indices.size();
      }
      prefix[r + 1] = prefix[r] + weight;
    }
    cut_runs(prefix, owners, cuts);
    const bool last_round = round + vehicles == count;
    const obs::Stopwatch owner_watch;
    common::parallel_for(owners, owners, [&](std::size_t o) {
      const obs::trace::TraceScope scope("ingest/scatter");
      const obs::Stopwatch watch;
      WorkerTotals& t = totals[o];
      for (std::size_t r = cuts[o]; r < cuts[o + 1]; ++r) {
        for (unsigned w = 0; w < slices; ++w) {
          t.exchanges += scatter_bucket(columns_[w].buckets[r], rsus_[r]);
        }
        if (last_round) (void)rsus_[r].state().bits().count_ones();
      }
      t.scatter += watch.seconds();
    });
    owner_seconds += owner_watch.seconds();
  }

  std::uint64_t exchanges = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const WorkerTotals& t = totals[w];
    metrics.encode_worker.observe(nanos(t.materialize + t.hash + t.channel));
    metrics.stage_materialize.observe(nanos(t.materialize));
    metrics.stage_hash.observe(nanos(t.hash));
    metrics.stage_channel.observe(nanos(t.channel));
    if (w < owners) metrics.stage_scatter.observe(nanos(t.scatter));
    stats.materialize_seconds += t.materialize;
    stats.hash_seconds += t.hash;
    stats.channel_seconds += t.channel;
    stats.scatter_seconds += t.scatter;
    exchanges += t.exchanges;
  }
  metrics.shard_merge.observe(nanos(owner_seconds));
  return exchanges;
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

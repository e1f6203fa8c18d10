// Encode-throughput bench: the serial vehicle-at-a-time protocol ingest
// (drive_vehicle) vs the columnar parallel engine (drive_vehicles), on a
// Zipf multi-RSU workload, plus the raw batch-encode kernel
// (Encoder::bit_indices into one bit array per worker, OR-merged)
// isolated from the protocol.
//
//   $ bench_encode_throughput                                  # 24 RSUs, 1M vehicles
//   $ bench_encode_throughput --rsus 6 --vehicles 20000 --repeat 1   # smoke
//
// Emits one JSON object so CI and scripts can track the speedup:
//   - "serial_seconds": drive_vehicle per vehicle (the reference loop);
//   - "batch_*": drive_vehicles with 1 worker and with one worker per
//     core, with a "batch_bit_identical_to_serial" flag asserting that
//     the reports (bits AND counters) equal the serial loop's at every
//     checked worker count;
//   - "raw_*": the protocol-free encode kernel on the largest RSU.
// Exits non-zero if any run's reports disagree.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "common/bit_array.h"
#include "common/cli.h"
#include "common/parallel.h"
#include "common/visited_mask.h"
#include "core/pair_simulation.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/simulation.h"

namespace {

using namespace vlm;

bool reports_identical(const vcps::VcpsSimulation& a,
                       const vcps::VcpsSimulation& b) {
  if (a.rsu_count() != b.rsu_count()) return false;
  for (std::size_t r = 0; r < a.rsu_count(); ++r) {
    const vcps::RsuReport ra = a.rsu(r).make_report(a.current_period());
    const vcps::RsuReport rb = b.rsu(r).make_report(b.current_period());
    if (ra.counter != rb.counter || ra.array_size != rb.array_size ||
        ra.bits != rb.bits) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser("bench_encode_throughput",
                           "parallel ingest vs the serial encode path");
  parser.add_int("rsus", 24, "deployment size K (zipf workload)");
  parser.add_int("vehicles", 1'000'000, "vehicles per period");
  parser.add_int("workers", 0, "ingest workers (0 = one per core)");
  parser.add_double("load-factor", 8.0, "VLM load factor f̄");
  parser.add_int("repeat", 3, "timing repetitions (best-of)");
  parser.add_int("seed", 7, "workload + simulation seed");
  if (!parser.parse(argc, argv)) return 0;

  const auto k = static_cast<std::size_t>(parser.get_int("rsus"));
  const auto vehicles = static_cast<std::uint64_t>(parser.get_int("vehicles"));
  const unsigned workers =
      parser.get_int("workers") == 0
          ? common::default_worker_count()
          : static_cast<unsigned>(parser.get_int("workers"));
  const int repeat = std::max(1, static_cast<int>(parser.get_int("repeat")));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  traffic::MultiRsuConfig workload_config;
  workload_config.rsu_count = k;
  workload_config.vehicle_count = vehicles;
  workload_config.seed = seed;
  traffic::MultiRsuWorkload workload(workload_config);
  // Ground-truth pass (untimed) for the per-site history volumes.
  workload.for_each_vehicle([](std::uint64_t, std::span<const std::uint32_t>) {});

  vcps::SimulationConfig sim_config;
  sim_config.seed = seed;
  sim_config.server.scheme = core::make_vlm_scheme(
      {.s = 2, .load_factor = parser.get_double("load-factor")});
  std::vector<vcps::RsuSite> sites;
  for (std::size_t r = 0; r < k; ++r) {
    sites.push_back(vcps::RsuSite{
        core::RsuId{r + 1},
        static_cast<double>(workload.node_volumes()[r])});
  }

  // Native CSR bulk form: one provider call per worker sub-slice, no
  // per-vehicle std::function hop or positions copy.
  const vcps::BulkItineraryProvider bulk_provider =
      [&workload, k](std::uint64_t begin, std::uint64_t end,
                     common::UninitVector<std::uint32_t>& positions,
                     std::vector<std::uint64_t>& offsets,
                     std::vector<std::uint64_t>& counts) {
        thread_local common::VisitedMask visited(0);
        if (visited.universe_size() != k) visited = common::VisitedMask(k);
        workload.itineraries(begin, end, visited, positions, offsets, counts);
      };

  // One full measurement period through the serial vehicle-at-a-time path.
  auto run_serial = [&](double& seconds) {
    auto sim = std::make_unique<vcps::VcpsSimulation>(sim_config, sites);
    sim->begin_period();
    common::VisitedMask visited(k);
    std::vector<std::uint32_t> rsus;
    std::vector<std::size_t> positions;
    const obs::Stopwatch t0;
    for (std::uint64_t v = 0; v < vehicles; ++v) {
      workload.itinerary(v, visited, rsus);
      positions.assign(rsus.begin(), rsus.end());
      sim->drive_vehicle(positions);
    }
    seconds = t0.seconds();
    sim->end_period();
    return sim;
  };

  // Same period through drive_vehicles.
  auto run_batch = [&](unsigned w, double& seconds,
                       vcps::IngestStats* stats_out) {
    auto sim = std::make_unique<vcps::VcpsSimulation>(sim_config, sites);
    sim->begin_period();
    const obs::Stopwatch t0;
    const vcps::IngestStats stats =
        sim->drive_vehicles(vehicles, bulk_provider, w);
    seconds = t0.seconds();
    sim->end_period();
    if (stats_out != nullptr) *stats_out = stats;
    return sim;
  };

  double serial_best = 1e300, batch_serial_best = 1e300,
         batch_parallel_best = 1e300;
  std::unique_ptr<vcps::VcpsSimulation> serial, batch1, batchN;
  vcps::IngestStats batch_stats;
  for (int rep = 0; rep < repeat; ++rep) {
    double s = 0.0;
    serial = run_serial(s);
    serial_best = std::min(serial_best, s);
    batch1 = run_batch(1, s, nullptr);
    batch_serial_best = std::min(batch_serial_best, s);
    batchN = run_batch(workers, s, &batch_stats);
    batch_parallel_best = std::min(batch_parallel_best, s);
  }

  // Acceptance gate: for EVERY checked worker count, the columnar
  // engine's reports must equal the serial per-vehicle loop bit for bit.
  bool batch_identical = reports_identical(*serial, *batch1) &&
                         reports_identical(*serial, *batchN);
  for (const unsigned w : {2u, std::max(2u, workers / 2)}) {
    double s = 0.0;
    const auto batch_w = run_batch(w, s, nullptr);
    batch_identical = batch_identical && reports_identical(*serial, *batch_w);
  }

  // Raw kernel: batch-encode every vehicle against the busiest RSU —
  // serial bit_index + set() vs per-worker bit_indices + set_bulk() into
  // one array per worker, OR-merged with merge_or.
  std::vector<core::VehicleIdentity> identities(vehicles);
  for (std::uint64_t v = 0; v < vehicles; ++v) {
    identities[v] = core::synthetic_vehicle(seed, v + 1);
  }
  const core::Encoder& encoder = serial->encoder();
  const core::RsuId raw_rsu{1};  // zipf rank 0: the largest array
  const core::EncodeTarget target(serial->rsu(0).state().array_size());

  double raw_serial_best = 1e300, raw_parallel_best = 1e300;
  common::BitArray raw_serial_bits(target.array_size());
  common::BitArray raw_parallel_bits(target.array_size());
  for (int rep = 0; rep < repeat; ++rep) {
    common::BitArray bits(target.array_size());
    const obs::Stopwatch t0;
    for (const core::VehicleIdentity& v : identities) {
      bits.set(encoder.bit_index(v, raw_rsu, target));
    }
    raw_serial_best = std::min(raw_serial_best, t0.seconds());
    raw_serial_bits = bits;

    std::vector<common::BitArray> per_worker(
        workers, common::BitArray(target.array_size()));
    const obs::Stopwatch t1;
    common::parallel_slices(
        identities.size(), workers,
        [&](unsigned worker, std::size_t begin, std::size_t end) {
          constexpr std::size_t kChunk = 8192;
          std::vector<std::size_t> indices(kChunk);
          common::BitArray& own = per_worker[worker];
          for (std::size_t i = begin; i < end; i += kChunk) {
            const std::size_t len = std::min(kChunk, end - i);
            const std::span<std::size_t> out(indices.data(), len);
            encoder.bit_indices(
                std::span<const core::VehicleIdentity>(&identities[i], len),
                raw_rsu, target, out);
            own.set_bulk(out);
          }
        });
    raw_parallel_bits = per_worker.front();
    for (unsigned w = 1; w < workers; ++w) {
      raw_parallel_bits.merge_or(per_worker[w]);
    }
    raw_parallel_best = std::min(raw_parallel_best, t1.seconds());
  }
  const bool raw_identical = raw_serial_bits == raw_parallel_bits;

  // Flight-recorder disabled-overhead bound. Every instrumented site
  // compiles down to one relaxed load of the trace-enabled flag when the
  // recorder is off (the state all the timed runs above executed in).
  // Measure that per-check cost directly, count the checks a parallel
  // batch period performs (three encode-stage scopes per 16 Ki-vehicle
  // sub-slice and one scatter scope per owner per round, plus the Span
  // sites and the pool queue-wait probes), and
  // bound the fraction of the timed run they can account for. The gate
  // feeds the exit status: instrumentation that stops being free when
  // disabled fails the bench.
  double trace_scope_ns = 0.0;
  {
    constexpr int kProbes = 1 << 21;
    const obs::Stopwatch tp;
    for (int i = 0; i < kProbes; ++i) {
      const obs::trace::TraceScope probe("bench/noop");
      (void)probe;
    }
    trace_scope_ns = tp.seconds() * 1e9 / static_cast<double>(kProbes);
  }
  const double trace_sub_slices =
      std::ceil(static_cast<double>(vehicles) / 16384.0) +
      static_cast<double>(workers);
  const double trace_checks = 4.0 * trace_sub_slices +
                              16.0 * static_cast<double>(workers) + 64.0;
  const double trace_disabled_overhead =
      batch_parallel_best > 0.0
          ? trace_checks * trace_scope_ns * 1e-9 / batch_parallel_best
          : 0.0;
  const bool trace_overhead_ok = trace_disabled_overhead < 0.02;

  const auto per_sec = [&](double seconds) {
    return static_cast<double>(vehicles) / seconds;
  };
  // Per-stage throughput from the timed parallel batch run (stage
  // seconds are summed across workers, so this is the aggregate rate the
  // stage sustained over the period). A stage the channel skips entirely
  // (loss-free) reports 0 rather than inf.
  const auto stage_per_sec = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(vehicles) / seconds : 0.0;
  };
  std::printf(
      "{\"rsus\": %zu, \"vehicles\": %llu, \"workers\": %u, \"exchanges\": "
      "%llu,\n"
      " \"kernel_isa\": \"%s\",\n"
      " \"serial_seconds\": %.6f,\n"
      " \"serial_vehicles_per_second\": %.0f,\n"
      " \"batch_serial_seconds\": %.6f,\n"
      " \"batch_parallel_seconds\": %.6f,\n"
      " \"speedup_batch_serial\": %.2f,\n"
      " \"speedup_batch_parallel\": %.2f,\n"
      " \"batch_vehicles_per_second\": %.0f,\n"
      " \"batch_stage_seconds\": {\"materialize\": %.6f, \"hash\": %.6f, "
      "\"channel\": %.6f, \"scatter\": %.6f},\n"
      " \"batch_stage_vehicles_per_second\": {\"materialize\": %.0f, "
      "\"hash\": %.0f, \"channel\": %.0f, \"scatter\": %.0f},\n"
      " \"trace_disabled_scope_ns\": %.3f,\n"
      " \"trace_disabled_overhead\": %.6f,\n"
      " \"trace_disabled_overhead_ok\": %s,\n"
      " \"raw_encode_serial_seconds\": %.6f,\n"
      " \"raw_encode_parallel_seconds\": %.6f,\n"
      " \"raw_encode_parallel_vehicles_per_second\": %.0f,\n"
      " \"batch_bit_identical_to_serial\": %s,\n"
      " \"raw_bits_identical\": %s,\n"
      " \"metrics\": %s}\n",
      k, static_cast<unsigned long long>(vehicles), batch_stats.workers,
      static_cast<unsigned long long>(batch_stats.exchanges),
      batch_stats.kernel_isa, serial_best, per_sec(serial_best),
      batch_serial_best, batch_parallel_best, serial_best / batch_serial_best,
      serial_best / batch_parallel_best, per_sec(batch_parallel_best),
      batch_stats.materialize_seconds, batch_stats.hash_seconds,
      batch_stats.channel_seconds, batch_stats.scatter_seconds,
      stage_per_sec(batch_stats.materialize_seconds),
      stage_per_sec(batch_stats.hash_seconds),
      stage_per_sec(batch_stats.channel_seconds),
      stage_per_sec(batch_stats.scatter_seconds),
      trace_scope_ns, trace_disabled_overhead,
      trace_overhead_ok ? "true" : "false",
      raw_serial_best, raw_parallel_best, per_sec(raw_parallel_best),
      batch_identical ? "true" : "false", raw_identical ? "true" : "false",
      obs::to_json(obs::MetricsRegistry::global().snapshot(), {}, 2).c_str());
  return batch_identical && raw_identical && trace_overhead_ok ? 0 : 1;
}

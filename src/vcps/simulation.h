// End-to-end VCPS measurement simulation.
//
// Wires together the certificate authority, a fleet of RSUs, the DSRC
// channel, and the central server, and drives complete measurement
// periods from a caller-supplied vehicle stream. This is the layer the
// examples use; figure benches bypass it and call core directly for
// speed (the protocol adds certificate checks and message objects per
// visit but lands bits in exactly the same places — a test asserts the
// equivalence).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/uninit.h"
#include "core/encoder.h"
#include "obs/health.h"
#include "vcps/central_server.h"
#include "vcps/channel.h"
#include "vcps/pki.h"
#include "vcps/rsu.h"

namespace vlm::vcps {

struct SimulationConfig {
  // Vehicles encode with the scheme configured on the server — the
  // scheme owns the one encoder both sides must share, so a VLM/FBM
  // (or future-scheme) deployment is a single Scheme construction here.
  CentralServerConfig server;
  ChannelConfig channel;
  std::uint64_t ca_master_secret = 0xCAFEBABE12345678ull;
  std::uint64_t seed = 1;
};

struct RsuSite {
  core::RsuId id;
  double initial_history_volume = 0.0;
};

// Itinerary provider for drive_vehicles: fills `positions`
// (indices into the registered site list) for vehicle `v` in [0, count).
// Must be a pure function of `v` — workers call it concurrently, each for
// its own slice of vehicles.
using ItineraryProvider =
    std::function<void(std::uint64_t v, std::vector<std::size_t>& positions)>;

// Bulk itinerary provider: fills the itineraries of every vehicle in
// [begin, end) in CSR layout — vehicle (begin + i)'s RSU positions are
// positions[offsets[i]] .. positions[offsets[i + 1]]. Must produce
// exactly the per-vehicle lists an ItineraryProvider would, vehicle by
// vehicle, and be a pure function of the range. One call per worker
// slice instead of one per vehicle: this is the form the ingest engine
// consumes, and the per-vehicle form is adapted into it.
//
// `counts` must be filled with the block's per-RSU visit histogram —
// size rsu_count, counts[r] = number of positions equal to r — which the
// engine uses to size its SoA buckets without re-scanning the CSR.
// The engine cross-checks the histogram against the positions it
// actually sees, so a provider bug fails loudly instead of corrupting
// buckets.
//
// `positions` is an UninitVector: providers must size it and write every
// slot in range (CSR emission does exactly that), so the engine never
// pays a value-init memset over a whole slice per call.
using BulkItineraryProvider = std::function<void(
    std::uint64_t begin, std::uint64_t end,
    common::UninitVector<std::uint32_t>& positions,
    std::vector<std::uint64_t>& offsets, std::vector<std::uint64_t>& counts)>;

// Throughput counters for one drive_vehicles() call.
struct IngestStats {
  std::uint64_t vehicles = 0;
  std::uint64_t exchanges = 0;  // successful query/reply deliveries
  unsigned workers = 1;
  double seconds = 0.0;
  // ISA the kernel dispatch selected for the encode/scatter/recount
  // sweeps ("scalar", "avx2", "avx512") — a static string, never freed.
  const char* kernel_isa = "scalar";
  // Per-stage seconds summed across workers (CPU time, not wall time;
  // the stages of different workers overlap), each itself summed over
  // the call's rounds. Scatter is the owners' time.
  double materialize_seconds = 0.0;
  double hash_seconds = 0.0;
  double channel_seconds = 0.0;
  double scatter_seconds = 0.0;
  // Parallel regions this ingest dispatched to the persistent WorkerPool
  // and the pool's lifetime total afterwards — the pooled threads are
  // reused across periods, never respawned per call.
  std::uint64_t pool_dispatches = 0;
  std::uint64_t pool_lifetime_dispatches = 0;
  double vehicles_per_second() const {
    return seconds > 0.0 ? static_cast<double>(vehicles) / seconds : 0.0;
  }
};

struct ExchangeColumns;  // vcps/ingest_batch.h

class VcpsSimulation {
 public:
  VcpsSimulation(const SimulationConfig& config, std::span<const RsuSite> sites);
  ~VcpsSimulation();

  std::size_t rsu_count() const { return rsus_.size(); }
  const Rsu& rsu(std::size_t position) const;
  const CentralServer& server() const { return server_; }
  const DsrcChannel& channel() const { return channel_; }
  const core::Scheme& scheme() const { return server_.scheme(); }
  const core::Encoder& encoder() const { return server_.scheme().encoder(); }

  // Starts a measurement period: server re-derives every RSU's array size
  // from history; RSUs reset their state.
  void begin_period();
  std::uint64_t current_period() const { return period_; }

  // Drives one vehicle through the RSUs at `rsu_positions` (indices into
  // the registered site list), one query and one reply at a time. The
  // vehicle takes the next vehicle number (vehicles_driven() + 1), and
  // its identity is derived from the simulation seed and that number.
  // Channel loss and duplication are the hashed per-(period, vehicle
  // number, RSU) draws of DsrcChannel::*_for, so this loop is the
  // reference drive_vehicles is tested against on every channel. Returns
  // the number of successful query/reply exchanges.
  std::size_t drive_vehicle(std::span<const std::size_t> rsu_positions);

  // Same, with an explicit identity (for tests that need to re-drive a
  // known vehicle). The vehicle still takes the next vehicle number, so
  // this advances vehicles_driven() too and keys the channel draws.
  std::size_t drive_vehicle_as(const core::VehicleIdentity& identity,
                               std::span<const std::size_t> rsu_positions);

  // Parallel ingest: drives `count` fresh vehicles (numbered as if
  // drive_vehicle had been called `count` times) through the full
  // protocol across `workers` threads (0 = one per core), in rounds of up
  // to workers × 16384 vehicles through the staged columnar pipeline
  // (ingest_batch.h): each worker encodes one sub-slice, then the RSUs
  // are cut into contiguous runs of about equal exchange count and each
  // run's owner writes its RSUs' arrays, so every array has one writer
  // and no per-worker copies exist. The channel draws are the same
  // hashed per-exchange draws drive_vehicle makes, so the per-RSU bits,
  // counters, exchange count and channel tallies equal those of a
  // drive_vehicle loop over the same vehicles, for every worker count
  // and every channel.
  IngestStats drive_vehicles(std::uint64_t count,
                             const ItineraryProvider& itinerary,
                             unsigned workers = 0);

  // Same, fed by the bulk CSR form directly — skips the per-vehicle
  // function call and copy of the adapted path, which measurably raises
  // materialize-stage throughput on workloads (like MultiRsuWorkload)
  // that can emit whole slices natively.
  IngestStats drive_vehicles(std::uint64_t count,
                             const BulkItineraryProvider& itineraries,
                             unsigned workers = 0);

  // Ends the period: every RSU reports to the central server, then the
  // fleet's states get a period-close health assessment (saturation /
  // load-factor drift), retrievable via last_health().
  void end_period();

  // Health verdicts of the most recent end_period() call.
  const obs::health::HealthSummary& last_health() const {
    return last_health_;
  }

  // Post-report estimate between two sites.
  core::PairEstimate estimate(std::size_t position_a,
                              std::size_t position_b) const;

  std::uint64_t vehicles_driven() const { return vehicles_driven_; }

 private:
  // drive_vehicle and drive_vehicle_as: drives `identity` as vehicle
  // number `vehicle_number`.
  std::size_t drive_numbered(std::uint64_t vehicle_number,
                             const core::VehicleIdentity& identity,
                             std::span<const std::size_t> rsu_positions);

  // The rounds behind drive_vehicles. Fills the per-worker channel
  // tallies (one per entry of `tallies`, whose size is the worker count)
  // and `stats`' stage fields, and returns the recorded exchanges.
  std::uint64_t ingest_rounds(std::uint64_t count,
                              const BulkItineraryProvider& itineraries,
                              std::span<ChannelTally> tallies,
                              IngestStats& stats);

  CertificateAuthority ca_;
  CentralServer server_;
  DsrcChannel channel_;
  std::vector<Rsu> rsus_;
  std::uint64_t seed_;
  std::uint64_t period_ = 0;
  std::uint64_t vehicles_driven_ = 0;
  bool period_open_ = false;
  obs::health::HealthSummary last_health_;
  // The per-worker exchange columns, kept across rounds
  // and calls so steady-state ingest reuses their capacity.
  std::vector<ExchangeColumns> columns_;
};

}  // namespace vlm::vcps

// Columnar (SoA) batch ingest engine behind VcpsSimulation::drive_vehicles.
//
// The per-vehicle object loop spends its time on dispatch, not bit work:
// one Vehicle construction, one certificate check, one scalar hash pair,
// and one channel draw per exchange. This module restructures ingest
// into four flat stages so each cost is paid per batch instead of per
// exchange. drive_vehicles runs them in rounds of two pool regions:
//
//   region 1, one sub-slice of vehicles per worker, into the worker's
//   own ExchangeColumns:
//   1. materialize  one bulk CSR itinerary call per sub-slice -> per-RSU
//                   SoA buckets of (masked key, vehicle number) exchange
//                   tuples, sized exactly from the provider's fused
//                   per-RSU histogram (no second scan of the CSR); the
//                   sub-slice's masked keys come from one batched
//                   synthetic_masked_keys derivation and each is reused
//                   for all of that vehicle's visits
//   2. hash         per bucket, every bit index in one encode_batch
//                   kernel call (vectorized two-round splitmix64)
//   3. channel      per bucket, every query/reply/duplicate outcome in
//                   one DsrcChannel::draws_for_batch call
//
//   region 2, one contiguous run of RSUs per owner:
//   4. scatter      every worker's bucket of each owned RSU -> the RSU's
//                   own array through Rsu::record_bulk, so each array
//                   has exactly one writer per round and no worker
//                   shards exist
//
// Hash-domain invariant: stages 2 and 3 evaluate exactly the hashes the
// serial drive_vehicle loop evaluates — the encoder's (masked_key, RSU, salt) domains
// and the channel's (seed, period, vehicle number, RSU) domains — and
// bits OR while counters add, so the resulting bits, counters, and
// channel tallies are bit-identical to the per-vehicle loop for every
// worker count, round cut and owner cut, and every channel config. The
// ParallelIngest/BatchIngest suites are the acceptance gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/uninit.h"
#include "core/encoder.h"
#include "core/types.h"
#include "vcps/channel.h"
#include "vcps/rsu.h"
#include "vcps/simulation.h"

namespace vlm::vcps {

// One RSU position's columnar exchange tuples plus per-stage scratch,
// all in sub-slice order (ascending vehicle number — the order the serial
// loop visits them, though every stage is order-independent).
// Columns use UninitVector: each is sized exactly (counting pass or
// element-for-element from a sibling column) and then every slot is
// written before any read, so the resize() zero-fill of a plain vector
// would re-touch the columns every round for nothing.
struct RsuExchangeBucket {
  common::UninitVector<std::uint64_t> masked_keys;  // stage 1
  // Stage 1, only when the channel is lossy — the loss-free path never
  // draws per-exchange outcomes, so it skips this column entirely.
  common::UninitVector<std::uint64_t> vehicle_numbers;
  common::UninitVector<std::size_t> bit_indices;    // stage 2
  // Stage 3: per-exchange delivery counts (0, 1, or 2). Left EMPTY by a
  // loss-free channel as the "every exchange delivered exactly once"
  // fast path — the scatter stage then feeds bit_indices straight to
  // record_bulk without a per-exchange pass.
  common::UninitVector<std::uint8_t> deliveries;
};

// One worker's buckets (index = RSU position), reused across rounds and
// calls so steady-state ingest does not reallocate.
struct ExchangeColumns {
  std::vector<RsuExchangeBucket> buckets;
  // Stage 1 scratch: the sub-slice's itineraries in CSR layout (see
  // BulkItineraryProvider) and one write cursor per RSU.
  common::UninitVector<std::uint32_t> flat_positions;
  std::vector<std::uint64_t> offsets;
  // Stage 1 scratch: the provider's per-RSU visit histogram (bucket
  // sizes) and the sub-slice's batched masked keys, one per vehicle.
  std::vector<std::uint64_t> counts;
  common::UninitVector<std::uint64_t> masked_keys;
  // Stage 1 scratch: per-RSU bump-pointer write cursors into the bucket
  // columns (and their exclusive ends, for the histogram cross-check).
  std::vector<std::uint64_t*> key_cursors;
  std::vector<std::uint64_t*> key_ends;
  std::vector<std::uint64_t*> number_cursors;

  // Sizes `buckets` to rsu_count and clears every column.
  void reset(std::size_t rsu_count);
};

// Per-RSU constants hoisted out of the per-exchange loops: the validated
// encode target and whether a vehicle would answer this RSU at all (the
// certificate and array-size checks of Vehicle::handle_query are
// vehicle-independent, so they run once per call instead of per reply).
struct RsuIngestContext {
  core::RsuId id;
  core::EncodeTarget target;
  bool replies_answered;
};

// Stage 1 — materialize: fetches the slice's itineraries AND their
// per-RSU histogram with ONE `itineraries` call (CSR layout), sizes
// every bucket exactly from the histogram, derives the masked keys of
// all vehicles in [begin, end) with one batched synthetic_masked_keys
// call (numbered base + v + 1, matching the serial drive_vehicle
// counter), and writes one (masked key, vehicle number) tuple per visit
// through per-RSU cursors in a single pass over the CSR — no counting
// sweep, no per-visit growth checks. `with_vehicle_numbers` = false
// (loss-free channel: stage 3 never reads them) skips the
// vehicle-number column entirely. Throws if an itinerary emits a
// position >= rsu_count or the histogram disagrees with the CSR (the
// cursor-bound check catches any lying provider before a bucket
// overflows).
void materialize_exchanges(std::uint64_t seed, std::uint64_t base,
                           std::size_t begin, std::size_t end,
                           const BulkItineraryProvider& itineraries,
                           std::size_t rsu_count, bool with_vehicle_numbers,
                           ExchangeColumns& columns);

// Stage 2 — hash: fills every answered bucket's bit_indices through
// Encoder::bit_indices (the dispatched encode_batch kernel). Buckets of
// RSUs that vehicles reject are skipped — the serial path never encodes
// for them either.
void hash_bit_indices(const core::Encoder& encoder,
                      std::span<const RsuIngestContext> rsus,
                      ExchangeColumns& columns);

// Stage 3 — channel: fills every bucket's deliveries via
// DsrcChannel::draws_for_batch, accumulating the worker's tally. A
// loss-free channel leaves deliveries empty (see RsuExchangeBucket).
void draw_channel_outcomes(const DsrcChannel& channel, std::uint64_t period,
                           std::span<const RsuIngestContext> rsus,
                           ExchangeColumns& columns, ChannelTally& tally);

// Stage 4 — scatter, run by the RSU's owner: records every surviving
// delivery in one worker's `bucket` into `rsu` through Rsu::record_bulk
// (a count-2 delivery sets its bit once and counts twice, like the
// serial loop's two record() calls). Returns the number of recorded
// deliveries — the bucket's IngestStats::exchanges contribution. The
// bucket of an RSU that vehicles reject holds no bit indices and
// records nothing.
std::uint64_t scatter_bucket(const RsuExchangeBucket& bucket, Rsu& rsu);

}  // namespace vlm::vcps

#include "vcps/ingest_batch.h"

#include "common/require.h"
#include "core/pair_simulation.h"

namespace vlm::vcps {

void ExchangeColumns::reset(std::size_t rsu_count) {
  buckets.resize(rsu_count);
  for (RsuExchangeBucket& bucket : buckets) {
    bucket.masked_keys.clear();
    bucket.vehicle_numbers.clear();
    bucket.bit_indices.clear();
    bucket.deliveries.clear();
  }
  flat_positions.clear();
  offsets.clear();
  counts.clear();
  masked_keys.clear();
  key_cursors.clear();
  key_ends.clear();
  number_cursors.clear();
}

void materialize_exchanges(std::uint64_t seed, std::uint64_t base,
                           std::size_t begin, std::size_t end,
                           const BulkItineraryProvider& itineraries,
                           std::size_t rsu_count, bool with_vehicle_numbers,
                           ExchangeColumns& columns) {
  columns.reset(rsu_count);
  itineraries(begin, end, columns.flat_positions, columns.offsets,
              columns.counts);
  const std::size_t vehicles = end - begin;
  VLM_REQUIRE(columns.offsets.size() == vehicles + 1 &&
                  (vehicles == 0 || columns.offsets.front() == 0) &&
                  (vehicles == 0 ||
                   columns.offsets.back() == columns.flat_positions.size()),
              "bulk itinerary provider produced a malformed CSR");
  VLM_REQUIRE(columns.counts.size() == rsu_count,
              "bulk itinerary provider produced a malformed histogram");

  // The provider's fused histogram sizes every bucket exactly — no
  // counting sweep over the CSR. The histogram is cross-checked below:
  // the total must cover the CSR and every cursor must stay inside its
  // bucket, so a lying provider throws instead of corrupting memory.
  std::size_t total = 0;
  for (const std::uint64_t count : columns.counts) {
    total += static_cast<std::size_t>(count);
  }
  VLM_REQUIRE(total == columns.flat_positions.size(),
              "bulk itinerary histogram does not cover the CSR");
  // Write cursors as raw bump pointers (plus exclusive ends for the
  // histogram cross-check): the hot scatter below then costs one load,
  // one bounds compare, and one store per visit instead of re-chasing
  // bucket vectors through two indirections every iteration.
  columns.key_cursors.resize(rsu_count);
  columns.key_ends.resize(rsu_count);
  columns.number_cursors.resize(rsu_count);
  for (std::size_t r = 0; r < rsu_count; ++r) {
    RsuExchangeBucket& bucket = columns.buckets[r];
    bucket.masked_keys.resize(columns.counts[r]);
    if (with_vehicle_numbers) bucket.vehicle_numbers.resize(columns.counts[r]);
    columns.key_cursors[r] = bucket.masked_keys.data();
    columns.key_ends[r] = bucket.masked_keys.data() + bucket.masked_keys.size();
    columns.number_cursors[r] =
        with_vehicle_numbers ? bucket.vehicle_numbers.data() : nullptr;
  }

  // One batched derivation for the slice's masked keys (numbered
  // base + begin + i + 1, matching the serial drive_vehicle counter so
  // the identities — and therefore the bits — are the same population
  // regardless of how the ingest is driven), then a single pass over the
  // CSR scatters each tuple through its RSU cursor.
  columns.masked_keys.resize(vehicles);
  core::synthetic_masked_keys(seed, base + begin + 1, vehicles,
                              columns.masked_keys.data());
  std::uint64_t** const key_cursors = columns.key_cursors.data();
  std::uint64_t* const* const key_ends = columns.key_ends.data();
  std::uint64_t** const number_cursors = columns.number_cursors.data();
  for (std::size_t i = 0; i < vehicles; ++i) {
    const std::uint64_t vehicle_number = base + begin + i + 1;
    const std::uint64_t masked_key = columns.masked_keys[i];
    for (std::uint64_t o = columns.offsets[i]; o < columns.offsets[i + 1];
         ++o) {
      const std::uint32_t position = columns.flat_positions[o];
      VLM_REQUIRE(position < rsu_count, "RSU position out of range");
      VLM_REQUIRE(key_cursors[position] != key_ends[position],
                  "bulk itinerary histogram disagrees with the CSR");
      *key_cursors[position]++ = masked_key;
      if (with_vehicle_numbers) *number_cursors[position]++ = vehicle_number;
    }
  }
}

void hash_bit_indices(const core::Encoder& encoder,
                      std::span<const RsuIngestContext> rsus,
                      ExchangeColumns& columns) {
  for (std::size_t r = 0; r < rsus.size(); ++r) {
    RsuExchangeBucket& bucket = columns.buckets[r];
    if (!rsus[r].replies_answered || bucket.masked_keys.empty()) continue;
    bucket.bit_indices.resize(bucket.masked_keys.size());
    encoder.bit_indices(std::span<const std::uint64_t>(bucket.masked_keys),
                        rsus[r].id, rsus[r].target,
                        std::span<std::size_t>(bucket.bit_indices));
  }
}

void draw_channel_outcomes(const DsrcChannel& channel, std::uint64_t period,
                           std::span<const RsuIngestContext> rsus,
                           ExchangeColumns& columns, ChannelTally& tally) {
  if (channel.lossless()) return;  // empty deliveries = all delivered once
  for (std::size_t r = 0; r < rsus.size(); ++r) {
    RsuExchangeBucket& bucket = columns.buckets[r];
    if (bucket.vehicle_numbers.empty()) continue;
    bucket.deliveries.resize(bucket.vehicle_numbers.size());
    channel.draws_for_batch(
        period, std::span<const std::uint64_t>(bucket.vehicle_numbers),
        rsus[r].id, rsus[r].replies_answered,
        std::span<std::uint8_t>(bucket.deliveries), tally);
  }
}

std::uint64_t scatter_bucket(const RsuExchangeBucket& bucket, Rsu& rsu) {
  if (bucket.bit_indices.empty()) return 0;
  const std::uint64_t before = rsu.state().counter();
  if (bucket.deliveries.empty()) {
    // Loss-free fast path: every exchange delivered exactly once.
    rsu.record_bulk(bucket.bit_indices);
  } else {
    rsu.record_bulk(bucket.bit_indices, bucket.deliveries);
  }
  return rsu.state().counter() - before;
}

}  // namespace vlm::vcps

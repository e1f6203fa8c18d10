// DSRC channel model with failure injection.
//
// The paper treats DSRC as reliable ("RSUs broadcast queries ... ensuring
// that each passing vehicle receives at least one query"). We model that
// as the default, plus configurable loss and duplication so tests can
// quantify how the measurement degrades when radios misbehave: a lost
// reply under-counts n_x; a duplicated reply over-counts it (the bit is
// idempotent but the counter is not).
#pragma once

#include <cstdint>
#include <span>

#include "core/types.h"

namespace vlm::vcps {

struct ChannelConfig {
  double query_loss = 0.0;      // probability a query never arrives
  double reply_loss = 0.0;      // probability a reply never arrives
  double reply_duplicate = 0.0; // probability a delivered reply arrives twice
};

// Failure tallies of one ingest call or one driven vehicle: each worker
// counts the outcomes it sampled, and the tallies are summed into the
// channel's counters after the join (addition commutes, so the totals
// are independent of the vehicle-to-worker assignment).
struct ChannelTally {
  std::uint64_t queries_lost = 0;
  std::uint64_t replies_lost = 0;
  std::uint64_t replies_duplicated = 0;
};

class DsrcChannel {
 public:
  DsrcChannel(const ChannelConfig& config, std::uint64_t seed);

  // Per-exchange outcomes: the draw is a pure hash of (channel seed,
  // period, vehicle number, RSU id), so every worker count — and every
  // execution order — samples the identical outcome for a given
  // exchange. `deliveries_for_reply_for` returns 0 (lost), 1 (normal), or
  // 2 (duplicated). Counts into the caller's tally instead of the shared
  // counters; absorb() merges tallies after the join.
  bool query_delivered_for(std::uint64_t period, std::uint64_t vehicle_number,
                           core::RsuId rsu, ChannelTally& tally) const;
  int deliveries_for_reply_for(std::uint64_t period,
                               std::uint64_t vehicle_number, core::RsuId rsu,
                               ChannelTally& tally) const;

  // Columnar form of one whole exchange slice against ONE RSU:
  // deliveries[i] becomes the delivery count (0, 1, or 2) of the
  // exchange (period, vehicle_numbers[i], rsu), drawn from exactly the
  // per-exchange hash domains above and tallied with the same gating
  // (query loss first; a lost query draws no reply outcome), so the
  // result is bit-identical to calling query_delivered_for +
  // deliveries_for_reply_for per exchange in any order. When
  // `replies_answered` is false — the vehicle side would reject this
  // RSU's query — only the query-loss outcomes are drawn and tallied and
  // every delivery count is 0, mirroring the serial path's early return.
  // `deliveries` must have vehicle_numbers.size() entries. Returns the
  // sum of the delivery counts.
  std::uint64_t draws_for_batch(std::uint64_t period,
                                std::span<const std::uint64_t> vehicle_numbers,
                                core::RsuId rsu, bool replies_answered,
                                std::span<std::uint8_t> deliveries,
                                ChannelTally& tally) const;

  // True when every failure probability is zero: no exchange consumes
  // randomness, so callers may skip the draw stage entirely.
  bool lossless() const {
    return config_.query_loss == 0.0 && config_.reply_loss == 0.0 &&
           config_.reply_duplicate == 0.0;
  }

  // Adds a worker's tally to the channel counters.
  void absorb(const ChannelTally& tally);

  std::uint64_t queries_lost() const { return queries_lost_; }
  std::uint64_t replies_lost() const { return replies_lost_; }
  std::uint64_t replies_duplicated() const { return replies_duplicated_; }

 private:
  double unit_draw(std::uint64_t period, std::uint64_t vehicle_number,
                   core::RsuId rsu, std::uint64_t domain) const;

  ChannelConfig config_;
  std::uint64_t seed_;
  std::uint64_t queries_lost_ = 0;
  std::uint64_t replies_lost_ = 0;
  std::uint64_t replies_duplicated_ = 0;
};

}  // namespace vlm::vcps

// Roadside-unit protocol endpoint.
//
// Broadcasts queries carrying its certificate and current bit-array size,
// records each reply into its RsuState (Eqs. 1-2), and produces the
// end-of-period report for the central server. Malformed replies (bit
// index out of range) are counted and dropped rather than trusted —
// an over-the-air reply is attacker-controlled input.
#pragma once

#include <cstdint>
#include <span>

#include "core/rsu_state.h"
#include "core/types.h"
#include "vcps/messages.h"
#include "vcps/pki.h"

namespace vlm::vcps {

class Rsu {
 public:
  Rsu(core::RsuId id, Certificate certificate, std::size_t array_size);

  core::RsuId id() const { return id_; }
  const core::RsuState& state() const { return state_; }

  Query make_query(std::uint64_t period) const;

  // Returns false (and counts) if the reply is malformed.
  bool handle_reply(const Reply& reply);

  // The ingest engine's owner pass: records replies whose bit
  // indices were hashed against this RSU's current array size, each
  // delivered once, or deliveries[i] times (RsuState::record_bulk). The
  // ones count is deferred until the next read of it.
  void record_bulk(std::span<const std::size_t> bit_indices) {
    state_.record_bulk(bit_indices);
  }
  void record_bulk(std::span<const std::size_t> bit_indices,
                   std::span<const std::uint8_t> deliveries) {
    state_.record_bulk(bit_indices, deliveries);
  }

  RsuReport make_report(std::uint64_t period) const;

  // New measurement period, possibly with a re-sized array (the central
  // server re-derives m_x from updated history each period).
  void begin_period(std::size_t array_size);

  std::uint64_t invalid_replies() const { return invalid_replies_; }

 private:
  core::RsuId id_;
  Certificate certificate_;
  core::RsuState state_;
  std::uint64_t invalid_replies_ = 0;
};

}  // namespace vlm::vcps

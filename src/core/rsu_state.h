// Per-RSU measurement state: the counter n_x and bit array B_x of
// Section IV-B, plus the end-of-period report sent to the central server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bit_array.h"

namespace vlm::core {

class RsuState {
 public:
  // `array_size` must be a power of two (enforced; Section IV-A requires
  // m = 2^k so arrays of different RSUs can be unfolded onto each other).
  explicit RsuState(std::size_t array_size);

  // Reconstructs a state from a reported counter and bit array (the
  // central server's view), taking over `bits` without a copy. The array
  // size must be a power of two and the counter must be plausible: a
  // counter below the set bits, or a non-zero counter with an all-zero
  // array, is rejected.
  static RsuState from_report(std::uint64_t counter, common::BitArray bits);

  // Online coding (Eqs. 1-2): n += 1; B[index] = 1. O(1).
  void record(std::size_t bit_index);

  // Bulk online coding for the batch ingest path: record(indices[i]) for
  // every i, with the bit sets routed through the dispatched set_scatter
  // kernel and the counter bumped once by the batch size. A duplicated
  // delivery appears twice in `indices` and counts twice, exactly like
  // two record() calls.
  void record_bulk(std::span<const std::size_t> indices);

  // Lossy-channel form: indices[i] arrived deliveries[i] times (0 = lost,
  // 2 = duplicated), exactly like that many record() calls. The spans
  // must have equal length.
  void record_bulk(std::span<const std::size_t> indices,
                   std::span<const std::uint8_t> deliveries);

  // Start of a new measurement period.
  void reset();

  std::uint64_t counter() const { return counter_; }
  std::size_t array_size() const { return bits_.size(); }
  const common::BitArray& bits() const { return bits_; }

  std::size_t zero_count() const { return bits_.count_zeros(); }
  // V_x in the paper.
  double zero_fraction() const { return bits_.zero_fraction(); }
  // Realized load factor m / n for this period (infinity if no traffic).
  double load_factor() const;

 private:
  RsuState(std::uint64_t counter, common::BitArray bits);

  std::uint64_t counter_ = 0;
  common::BitArray bits_;
};

}  // namespace vlm::core

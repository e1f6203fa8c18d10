#include "core/rsu_state.h"

#include <limits>
#include <utility>

#include "common/math_util.h"
#include "common/require.h"

namespace vlm::core {

namespace {

void require_array_size(std::size_t array_size) {
  VLM_REQUIRE(common::is_power_of_two(array_size),
              "RSU bit array size must be a power of two");
  VLM_REQUIRE(array_size >= 2, "RSU bit array needs at least two bits");
}

}  // namespace

RsuState::RsuState(std::size_t array_size) : bits_(array_size) {
  require_array_size(array_size);
}

RsuState::RsuState(std::uint64_t counter, common::BitArray bits)
    : counter_(counter), bits_(std::move(bits)) {}

RsuState RsuState::from_report(std::uint64_t counter, common::BitArray bits) {
  require_array_size(bits.size());
  const std::size_t ones = bits.count_ones();
  VLM_REQUIRE(ones <= counter,
              "reported counter is below the number of set bits");
  VLM_REQUIRE(counter == 0 || ones > 0,
              "non-zero counter with an all-zero bit array");
  return RsuState(counter, std::move(bits));
}

void RsuState::record(std::size_t bit_index) {
  ++counter_;
  bits_.set(bit_index);
}

void RsuState::record_bulk(std::span<const std::size_t> indices) {
  bits_.set_bulk(indices);
  counter_ += indices.size();
}

void RsuState::record_bulk(std::span<const std::size_t> indices,
                           std::span<const std::uint8_t> deliveries) {
  bits_.set_bulk(indices, deliveries);
  for (const std::uint8_t d : deliveries) counter_ += d;
}

void RsuState::reset() {
  counter_ = 0;
  bits_.reset();
}

double RsuState::load_factor() const {
  if (counter_ == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(bits_.size()) / static_cast<double>(counter_);
}

}  // namespace vlm::core

#include "core/rsu_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vlm::core {
namespace {

TEST(RsuState, StartsEmpty) {
  RsuState state(64);
  EXPECT_EQ(state.counter(), 0u);
  EXPECT_EQ(state.array_size(), 64u);
  EXPECT_EQ(state.zero_count(), 64u);
  EXPECT_DOUBLE_EQ(state.zero_fraction(), 1.0);
  EXPECT_TRUE(std::isinf(state.load_factor()));
}

TEST(RsuState, RequiresPowerOfTwoSize) {
  EXPECT_THROW(RsuState(100), std::invalid_argument);
  EXPECT_THROW(RsuState(1), std::invalid_argument);
  EXPECT_NO_THROW(RsuState(2));
}

TEST(RsuState, RecordAdvancesCounterAndSetsBit) {
  RsuState state(16);
  state.record(5);
  state.record(5);  // same bit twice: counter still advances (Eq. 1)
  state.record(9);
  EXPECT_EQ(state.counter(), 3u);
  EXPECT_TRUE(state.bits().test(5));
  EXPECT_TRUE(state.bits().test(9));
  EXPECT_EQ(state.zero_count(), 14u);
  EXPECT_DOUBLE_EQ(state.load_factor(), 16.0 / 3.0);
}

TEST(RsuState, RecordBoundsChecked) {
  RsuState state(8);
  EXPECT_THROW(state.record(8), std::invalid_argument);
}

TEST(RsuState, RecordBulkWithDeliveriesEqualsRecordLoop) {
  // deliveries[i] copies of reply i: 0 = lost, 2 = duplicated.
  const std::vector<std::size_t> indices{5, 9, 5, 200, 31};
  const std::vector<std::uint8_t> deliveries{2, 0, 1, 1, 0};
  RsuState bulk(256);
  bulk.record_bulk(indices, deliveries);
  RsuState looped(256);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    for (std::uint8_t d = 0; d < deliveries[i]; ++d) looped.record(indices[i]);
  }
  EXPECT_EQ(bulk.counter(), 4u);
  EXPECT_EQ(bulk.counter(), looped.counter());
  EXPECT_EQ(bulk.bits(), looped.bits());
  EXPECT_EQ(bulk.zero_count(), looped.zero_count());
}

TEST(RsuState, ResetClearsPeriod) {
  RsuState state(8);
  state.record(1);
  state.reset();
  EXPECT_EQ(state.counter(), 0u);
  EXPECT_EQ(state.zero_count(), 8u);
}

TEST(RsuStateFromReport, ReconstructsState) {
  RsuState original(32);
  original.record(3);
  original.record(3);
  original.record(17);
  const RsuState restored =
      RsuState::from_report(original.counter(), original.bits());
  EXPECT_EQ(restored.counter(), 3u);
  EXPECT_EQ(restored.bits(), original.bits());
}

TEST(RsuStateFromReport, TakesOverTheBitsWithoutACopy) {
  common::BitArray bits(1 << 12);
  bits.set(5);
  bits.set(700);
  const std::uint64_t* storage = bits.words().data();
  const RsuState state = RsuState::from_report(4, std::move(bits));
  EXPECT_EQ(state.bits().words().data(), storage);
  EXPECT_EQ(state.counter(), 4u);
  EXPECT_EQ(state.zero_count(), (std::size_t{1} << 12) - 2);
}

TEST(RsuStateFromReport, RejectsInconsistentReports) {
  common::BitArray bits(8);
  bits.set(0);
  bits.set(1);
  // Counter below the number of set bits is impossible.
  EXPECT_THROW((void)RsuState::from_report(1, bits), std::invalid_argument);
  // Non-zero counter with all-zero bits is impossible.
  EXPECT_THROW((void)RsuState::from_report(3, common::BitArray(8)),
               std::invalid_argument);
  // Zero counter with zero bits is fine (idle RSU).
  EXPECT_NO_THROW((void)RsuState::from_report(0, common::BitArray(8)));
}

TEST(RsuStateFromReport, RequiresPowerOfTwoArray) {
  EXPECT_THROW((void)RsuState::from_report(0, common::BitArray(24)),
               std::invalid_argument);
  EXPECT_THROW((void)RsuState::from_report(0, common::BitArray(1)),
               std::invalid_argument);
  EXPECT_THROW((void)RsuState::from_report(0, common::BitArray()),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlm::core

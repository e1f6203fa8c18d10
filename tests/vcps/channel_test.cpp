#include "vcps/channel.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace vlm::vcps {
namespace {

TEST(ChannelHashedDraws, DeterministicPerExchangeRegardlessOfOrder) {
  ChannelConfig config;
  config.query_loss = 0.3;
  config.reply_loss = 0.2;
  config.reply_duplicate = 0.1;
  const DsrcChannel a(config, 11);
  const DsrcChannel b(config, 11);
  ChannelTally ta, tb;
  // Query a in ascending order, b in descending order: every individual
  // outcome must match because the draw depends only on the exchange key.
  constexpr std::uint64_t kN = 2'000;
  std::vector<bool> queries_a(kN);
  std::vector<int> replies_a(kN);
  for (std::uint64_t v = 0; v < kN; ++v) {
    queries_a[v] = a.query_delivered_for(3, v, core::RsuId{5}, ta);
    replies_a[v] = a.deliveries_for_reply_for(3, v, core::RsuId{5}, ta);
  }
  for (std::uint64_t v = kN; v-- > 0;) {
    EXPECT_EQ(b.query_delivered_for(3, v, core::RsuId{5}, tb), queries_a[v]);
    EXPECT_EQ(b.deliveries_for_reply_for(3, v, core::RsuId{5}, tb),
              replies_a[v]);
  }
  EXPECT_EQ(ta.queries_lost, tb.queries_lost);
  EXPECT_EQ(ta.replies_lost, tb.replies_lost);
  EXPECT_EQ(ta.replies_duplicated, tb.replies_duplicated);
}

TEST(ChannelHashedDraws, DrawsVaryAcrossPeriodVehicleAndRsu) {
  ChannelConfig config;
  config.query_loss = 0.5;
  const DsrcChannel channel(config, 21);
  ChannelTally tally;
  // With p=0.5 and 64 draws per axis, all-equal outcomes would mean the
  // key component is being ignored.
  auto varies = [&](auto&& draw) {
    bool saw_true = false, saw_false = false;
    for (std::uint64_t i = 0; i < 64; ++i) {
      (draw(i) ? saw_true : saw_false) = true;
    }
    return saw_true && saw_false;
  };
  EXPECT_TRUE(varies([&](std::uint64_t p) {
    return channel.query_delivered_for(p, 1, core::RsuId{1}, tally);
  }));
  EXPECT_TRUE(varies([&](std::uint64_t v) {
    return channel.query_delivered_for(1, v, core::RsuId{1}, tally);
  }));
  EXPECT_TRUE(varies([&](std::uint64_t r) {
    return channel.query_delivered_for(1, 1, core::RsuId{r}, tally);
  }));
}

TEST(ChannelHashedDraws, RatesApproximateConfig) {
  ChannelConfig config;
  config.query_loss = 0.2;
  config.reply_loss = 0.1;
  config.reply_duplicate = 0.05;
  const DsrcChannel channel(config, 31);
  ChannelTally tally;
  constexpr std::uint64_t kTrials = 50'000;
  for (std::uint64_t v = 0; v < kTrials; ++v) {
    (void)channel.query_delivered_for(1, v, core::RsuId{9}, tally);
    (void)channel.deliveries_for_reply_for(1, v, core::RsuId{9}, tally);
  }
  EXPECT_NEAR(static_cast<double>(tally.queries_lost) / kTrials, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(tally.replies_lost) / kTrials, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(tally.replies_duplicated) / kTrials, 0.05,
              0.01);
}

TEST(ChannelHashedDraws, LosslessConfigConsumesNoDrawsAndCountsNothing) {
  DsrcChannel channel({}, 5);
  ChannelTally tally;
  for (std::uint64_t v = 0; v < 100; ++v) {
    EXPECT_TRUE(channel.query_delivered_for(1, v, core::RsuId{1}, tally));
    EXPECT_EQ(channel.deliveries_for_reply_for(1, v, core::RsuId{1}, tally), 1);
  }
  EXPECT_EQ(tally.queries_lost, 0u);
  EXPECT_EQ(tally.replies_lost, 0u);
  EXPECT_EQ(tally.replies_duplicated, 0u);
}

TEST(ChannelHashedDraws, AbsorbSumsTalliesIntoCounters) {
  DsrcChannel channel({}, 5);
  ChannelTally t1{1, 2, 3}, t2{10, 20, 30};
  channel.absorb(t1);
  channel.absorb(t2);
  EXPECT_EQ(channel.queries_lost(), 11u);
  EXPECT_EQ(channel.replies_lost(), 22u);
  EXPECT_EQ(channel.replies_duplicated(), 33u);
}

TEST(Channel, Guards) {
  EXPECT_THROW(DsrcChannel(ChannelConfig{1.0, 0.0, 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(DsrcChannel(ChannelConfig{0.0, -0.1, 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(DsrcChannel(ChannelConfig{0.0, 0.0, 1.0}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlm::vcps

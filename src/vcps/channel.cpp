#include "vcps/channel.h"

#include "common/hashing.h"
#include "common/require.h"

namespace vlm::vcps {

namespace {
// Domain separators so the query-loss, reply-loss, and duplication draws
// of one exchange are independent.
constexpr std::uint64_t kQueryDomain = 0x9E6C63C0DE11F00Dull;
constexpr std::uint64_t kReplyDomain = 0xB5EC0DEDF00DCAFEull;
constexpr std::uint64_t kDuplicateDomain = 0x2545F4914F6CDD1Dull;
}  // namespace

DsrcChannel::DsrcChannel(const ChannelConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  VLM_REQUIRE(config.query_loss >= 0.0 && config.query_loss < 1.0,
              "query loss must be in [0, 1)");
  VLM_REQUIRE(config.reply_loss >= 0.0 && config.reply_loss < 1.0,
              "reply loss must be in [0, 1)");
  VLM_REQUIRE(config.reply_duplicate >= 0.0 && config.reply_duplicate < 1.0,
              "reply duplication must be in [0, 1)");
}

double DsrcChannel::unit_draw(std::uint64_t period,
                              std::uint64_t vehicle_number, core::RsuId rsu,
                              std::uint64_t domain) const {
  // Two mix rounds over the exchange coordinates: one round leaves
  // measurable XOR structure between adjacent vehicle numbers.
  const std::uint64_t h = common::mix64(
      common::mix64(seed_ ^ domain ^ period * 0x9E3779B97F4A7C15ull) ^
      vehicle_number * 0xC2B2AE3D27D4EB4Full ^
      rsu.value * 0xD1B54A32D192ED03ull);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool DsrcChannel::query_delivered_for(std::uint64_t period,
                                      std::uint64_t vehicle_number,
                                      core::RsuId rsu,
                                      ChannelTally& tally) const {
  if (config_.query_loss > 0.0 &&
      unit_draw(period, vehicle_number, rsu, kQueryDomain) <
          config_.query_loss) {
    ++tally.queries_lost;
    return false;
  }
  return true;
}

int DsrcChannel::deliveries_for_reply_for(std::uint64_t period,
                                          std::uint64_t vehicle_number,
                                          core::RsuId rsu,
                                          ChannelTally& tally) const {
  if (config_.reply_loss > 0.0 &&
      unit_draw(period, vehicle_number, rsu, kReplyDomain) <
          config_.reply_loss) {
    ++tally.replies_lost;
    return 0;
  }
  if (config_.reply_duplicate > 0.0 &&
      unit_draw(period, vehicle_number, rsu, kDuplicateDomain) <
          config_.reply_duplicate) {
    ++tally.replies_duplicated;
    return 2;
  }
  return 1;
}

std::uint64_t DsrcChannel::draws_for_batch(
    std::uint64_t period, std::span<const std::uint64_t> vehicle_numbers,
    core::RsuId rsu, bool replies_answered, std::span<std::uint8_t> deliveries,
    ChannelTally& tally) const {
  VLM_REQUIRE(vehicle_numbers.size() == deliveries.size(),
              "batch draws need one delivery slot per exchange");
  const std::size_t n = vehicle_numbers.size();
  if (lossless()) {
    const std::uint8_t unit = replies_answered ? 1 : 0;
    for (std::size_t i = 0; i < n; ++i) deliveries[i] = unit;
    return replies_answered ? n : 0;
  }
  // unit_draw expanded with the per-(period, RSU, domain) terms hoisted:
  // mix64(mix64(seed ^ domain ^ period*K1) ^ vn*K2 ^ rsu*K3) becomes one
  // mix64 per draw over a precomputed base XOR the per-vehicle term.
  const std::uint64_t rsu_term = rsu.value * 0xD1B54A32D192ED03ull;
  const std::uint64_t period_term = period * 0x9E3779B97F4A7C15ull;
  const std::uint64_t query_base =
      common::mix64(seed_ ^ kQueryDomain ^ period_term) ^ rsu_term;
  const std::uint64_t reply_base =
      common::mix64(seed_ ^ kReplyDomain ^ period_term) ^ rsu_term;
  const std::uint64_t duplicate_base =
      common::mix64(seed_ ^ kDuplicateDomain ^ period_term) ^ rsu_term;
  const auto unit = [](std::uint64_t base, std::uint64_t vehicle_term) {
    return static_cast<double>(common::mix64(base ^ vehicle_term) >> 11) *
           0x1.0p-53;
  };
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t vehicle_term =
        vehicle_numbers[i] * 0xC2B2AE3D27D4EB4Full;
    if (config_.query_loss > 0.0 &&
        unit(query_base, vehicle_term) < config_.query_loss) {
      ++tally.queries_lost;
      deliveries[i] = 0;
      continue;
    }
    if (!replies_answered) {
      // The query arrived but the vehicle rejects it (bad certificate or
      // array size); the serial path draws no reply outcome either.
      deliveries[i] = 0;
      continue;
    }
    if (config_.reply_loss > 0.0 &&
        unit(reply_base, vehicle_term) < config_.reply_loss) {
      ++tally.replies_lost;
      deliveries[i] = 0;
      continue;
    }
    if (config_.reply_duplicate > 0.0 &&
        unit(duplicate_base, vehicle_term) < config_.reply_duplicate) {
      ++tally.replies_duplicated;
      deliveries[i] = 2;
      delivered += 2;
      continue;
    }
    deliveries[i] = 1;
    ++delivered;
  }
  return delivered;
}

void DsrcChannel::absorb(const ChannelTally& tally) {
  queries_lost_ += tally.queries_lost;
  replies_lost_ += tally.replies_lost;
  replies_duplicated_ += tally.replies_duplicated;
}

}  // namespace vlm::vcps

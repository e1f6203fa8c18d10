#include "vcps/rsu.h"

namespace vlm::vcps {

Rsu::Rsu(core::RsuId id, Certificate certificate, std::size_t array_size)
    : id_(id), certificate_(certificate), state_(array_size) {}

Query Rsu::make_query(std::uint64_t period) const {
  return Query{id_, certificate_, state_.array_size(), period};
}

bool Rsu::handle_reply(const Reply& reply) {
  if (reply.bit_index >= state_.array_size()) {
    ++invalid_replies_;
    return false;
  }
  state_.record(reply.bit_index);
  return true;
}

RsuReport Rsu::make_report(std::uint64_t period) const {
  RsuReport report;
  report.rsu = id_;
  report.period = period;
  report.counter = state_.counter();
  report.array_size = state_.array_size();
  report.bits = state_.bits().to_bytes();
  return report;
}

void Rsu::begin_period(std::size_t array_size) {
  state_ = core::RsuState(array_size);
}

}  // namespace vlm::vcps

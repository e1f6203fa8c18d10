#include "vcps/central_server.h"

#include <algorithm>
#include <utility>

#include "common/bit_array.h"
#include "common/math_util.h"
#include "common/require.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace vlm::vcps {

namespace {

// Server-side metrics: one span per ingested report plus quarantine
// reasons as labeled counters. PipelineStats stays a per-instance,
// per-period view fed from the same increments (several servers can
// coexist in one process — tests and benches do — so the instance view
// cannot be a bare registry delta; the registry aggregates them all).
struct ServerMetrics {
  obs::Counter& reports_ingested;
  obs::Counter& quarantined_zero_count;
  obs::Counter& quarantined_volume;
  obs::Counter& quarantined_unregistered;
  obs::Counter& quarantined_wrong_period;
  obs::Counter& quarantined_duplicate;
  obs::Histogram& ingest;  // wall time of one CentralServer::ingest call

  obs::Counter& quarantined(QuarantineReason reason) {
    switch (reason) {
      case QuarantineReason::kZeroCountAnomaly:
        return quarantined_zero_count;
      case QuarantineReason::kVolumeAnomaly:
        return quarantined_volume;
      case QuarantineReason::kUnregistered:
        return quarantined_unregistered;
      case QuarantineReason::kWrongPeriod:
        return quarantined_wrong_period;
      case QuarantineReason::kDuplicate:
      case QuarantineReason::kNone:  // never asked: account() ingests it
        break;
    }
    return quarantined_duplicate;
  }
};

ServerMetrics& server_metrics() {
  static ServerMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new ServerMetrics{
        r.counter("server/reports_ingested"),
        r.counter("server/quarantine/zero_count_anomaly"),
        r.counter("server/quarantine/volume_anomaly"),
        r.counter("server/quarantine/unregistered"),
        r.counter("server/quarantine/wrong_period"),
        r.counter("server/quarantine/duplicate"),
        obs::phase("server/ingest")};
  }();
  return *metrics;
}

}  // namespace

core::RsuState rebuild_state(const RsuReport& report) {
  return core::RsuState::from_report(
      report.counter,
      common::BitArray::from_bytes(report.array_size, report.bits));
}

CentralServer::CentralServer(const CentralServerConfig& config)
    : scheme_(config.scheme),
      history_alpha_(config.history_alpha),
      validation_(config.validation),
      decode_workers_(config.decode_workers) {
  VLM_REQUIRE(scheme_ != nullptr, "central server needs a scheme");
  VLM_REQUIRE(config.history_alpha > 0.0 && config.history_alpha <= 1.0,
              "history EWMA weight must be in (0, 1]");
  VLM_REQUIRE(!validation_.enabled || (validation_.tolerance_sigmas > 0.0 &&
                                       validation_.max_history_ratio > 1.0),
              "validation thresholds must be positive (ratio > 1)");
}

void CentralServer::register_rsu(core::RsuId id,
                                 double initial_history_volume) {
  VLM_REQUIRE(initial_history_volume >= 0.0,
              "history volume must be non-negative");
  VLM_REQUIRE(history_.find(id) == history_.end(), "RSU already registered");
  history_[id] = initial_history_volume;
}

bool CentralServer::is_registered(core::RsuId id) const {
  return history_.find(id) != history_.end();
}

double CentralServer::history_volume(core::RsuId id) const {
  auto it = history_.find(id);
  VLM_REQUIRE(it != history_.end(), "RSU not registered");
  return it->second;
}

std::size_t CentralServer::array_size_for(core::RsuId id) const {
  return scheme_->array_size_for(history_volume(id));
}

void CentralServer::begin_period(std::uint64_t period) {
  VLM_REQUIRE(ids_.empty() || period > period_,
              "periods must advance monotonically");
  period_ = period;
  ids_.clear();
  states_.clear();
  quarantined_.clear();
  stats_ = PipelineStats{};
  stats_.period = period;
}

QuarantineReason CentralServer::ingest(const RsuReport& report) {
  ServerMetrics& metrics = server_metrics();
  obs::Span ingest_span(metrics.ingest);
  auto account = [&](QuarantineReason reason) {
    stats_.ingest_seconds += ingest_span.finish();
    if (reason == QuarantineReason::kNone) {
      ++stats_.reports_ingested;
      metrics.reports_ingested.inc();
    } else {
      ++stats_.reports_quarantined;
      metrics.quarantined(reason).inc();
    }
    return reason;
  };

  // Reports this period cannot use: counted and dropped before a byte is
  // read, so a late or repeated report never aborts the close and never
  // replaces what the RSU already reported.
  auto history_it = history_.find(report.rsu);
  if (history_it == history_.end()) {
    return account(QuarantineReason::kUnregistered);
  }
  if (report.period != period_) {
    return account(QuarantineReason::kWrongPeriod);
  }
  const auto slot = std::lower_bound(ids_.begin(), ids_.end(), report.rsu);
  if ((slot != ids_.end() && *slot == report.rsu) ||
      quarantined_.contains(report.rsu)) {
    return account(QuarantineReason::kDuplicate);
  }

  // Only power-of-two arrays unfold onto each other (Section IV-A);
  // from_bytes checks the buffer length and trailing-bit hygiene and
  // counts the ones while it copies.
  VLM_REQUIRE(report.array_size >= 2 &&
                  common::is_power_of_two(report.array_size),
              "report array size must be a power of two >= 2");
  common::BitArray bits =
      common::BitArray::from_bytes(report.array_size, report.bits);
  const std::size_t ones = bits.count_ones();

  auto quarantine = [&](QuarantineReason reason) {
    quarantined_[report.rsu] = reason;
    return account(reason);
  };

  // Every vehicle sets one bit and counts once, so these reports are
  // impossible — and RsuState::from_report would throw on them. Quarantine
  // them whether or not validation is on.
  if (ones > report.counter || (report.counter > 0 && ones == 0)) {
    return quarantine(QuarantineReason::kZeroCountAnomaly);
  }
  if (validation_.enabled) {
    const core::ReportValidator validator(validation_.tolerance_sigmas);
    const auto assessment = validator.assess(
        report.counter, report.array_size, report.array_size - ones);
    if (assessment.verdict != core::ReportVerdict::kPlausible) {
      return quarantine(QuarantineReason::kZeroCountAnomaly);
    }
    const double history = history_it->second;
    if (history >= validation_.min_history_for_ratio_check) {
      const double counter = static_cast<double>(report.counter);
      if (counter > history * validation_.max_history_ratio ||
          counter < history / validation_.max_history_ratio) {
        return quarantine(QuarantineReason::kVolumeAnomaly);
      }
    }
  }

  // Update n̄_x with the observed point volume (Section IV-C: the server
  // "first updates the history average ... to take into account the
  // traffic data in the current measurement period").
  history_it->second = (1.0 - history_alpha_) * history_it->second +
                       history_alpha_ * static_cast<double>(report.counter);
  states_.insert(states_.begin() + (slot - ids_.begin()),
                 core::RsuState::from_report(report.counter, std::move(bits)));
  ids_.insert(slot, report.rsu);
  return account(QuarantineReason::kNone);
}

QuarantineReason CentralServer::quarantine_reason(core::RsuId id) const {
  auto it = quarantined_.find(id);
  return it == quarantined_.end() ? QuarantineReason::kNone : it->second;
}

const core::RsuState& CentralServer::state_for(core::RsuId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  VLM_REQUIRE(it != ids_.end() && *it == id,
              "no report from this RSU this period");
  return states_[static_cast<std::size_t>(it - ids_.begin())];
}

core::PairEstimate CentralServer::estimate(core::RsuId a,
                                           core::RsuId b) const {
  VLM_REQUIRE(a != b, "point-to-point estimation needs two distinct RSUs");
  return scheme_->estimator().estimate(state_for(a), state_for(b));
}

core::EstimateInterval CentralServer::estimate_with_interval(
    core::RsuId a, core::RsuId b, double z) const {
  VLM_REQUIRE(a != b, "point-to-point estimation needs two distinct RSUs");
  const core::IntervalEstimator interval(scheme_->s(), z);
  return interval.estimate(state_for(a), state_for(b));
}

core::OdMatrix CentralServer::estimate_matrix(double z) const {
  VLM_REQUIRE(states_.size() >= 2, "an OD matrix needs at least two reports");
  core::OdMatrix matrix = core::estimate_od_matrix(
      states_, scheme_->s(), z, decode_workers_, &stats_.decode);
  // Decode-time estimator health: saturation/drift over the decoded
  // states plus each measured cell's predicted relative error.
  obs::health::HealthOptions health_options;
  health_options.target_load_factor = scheme_->target_load_factor();
  stats_.health = obs::health::assess_rsus(states_, health_options);
  obs::health::assess_pairs(matrix, stats_.health, stats_.decode.workers);
  return matrix;
}

}  // namespace vlm::vcps

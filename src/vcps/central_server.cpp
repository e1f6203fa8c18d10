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
  obs::Histogram& ingest;  // wall time of one CentralServer::ingest call
};

ServerMetrics& server_metrics() {
  static ServerMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new ServerMetrics{
        r.counter("server/reports_ingested"),
        r.counter("server/quarantine/zero_count_anomaly"),
        r.counter("server/quarantine/volume_anomaly"),
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
  VLM_REQUIRE(reports_.empty() || period > period_,
              "periods must advance monotonically");
  period_ = period;
  reports_.clear();
  quarantined_.clear();
  stats_ = PipelineStats{};
  stats_.period = period;
}

QuarantineReason CentralServer::ingest(RsuReport report) {
  ServerMetrics& metrics = server_metrics();
  obs::Span ingest_span(metrics.ingest);
  auto history_it = history_.find(report.rsu);
  VLM_REQUIRE(history_it != history_.end(), "report from unregistered RSU");
  VLM_REQUIRE(report.period == period_, "report for a different period");
  VLM_REQUIRE(reports_.find(report.rsu) == reports_.end() &&
                  quarantined_.find(report.rsu) == quarantined_.end(),
              "duplicate report for this period");
  // Only power-of-two arrays unfold onto each other (Section IV-A);
  // serialized_ones checks the buffer length and trailing-bit hygiene.
  VLM_REQUIRE(report.array_size >= 2 &&
                  common::is_power_of_two(report.array_size),
              "report array size must be a power of two >= 2");
  const std::size_t ones =
      common::BitArray::serialized_ones(report.array_size, report.bits);

  auto account = [&](QuarantineReason reason) {
    stats_.ingest_seconds += ingest_span.finish();
    switch (reason) {
      case QuarantineReason::kNone:
        ++stats_.reports_ingested;
        metrics.reports_ingested.inc();
        break;
      case QuarantineReason::kZeroCountAnomaly:
        ++stats_.reports_quarantined;
        metrics.quarantined_zero_count.inc();
        break;
      case QuarantineReason::kVolumeAnomaly:
        ++stats_.reports_quarantined;
        metrics.quarantined_volume.inc();
        break;
    }
    return reason;
  };
  auto quarantine = [&](QuarantineReason reason) {
    quarantined_[report.rsu] = reason;
    return account(reason);
  };

  // Every vehicle sets one bit and counts once, so these reports are
  // impossible — and RsuState::from_report would throw on them at every
  // later decode. Quarantine them whether or not validation is on.
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
  const core::RsuId id = report.rsu;
  reports_.emplace(id, std::move(report));
  return account(QuarantineReason::kNone);
}

QuarantineReason CentralServer::quarantine_reason(core::RsuId id) const {
  auto it = quarantined_.find(id);
  return it == quarantined_.end() ? QuarantineReason::kNone : it->second;
}

const RsuReport& CentralServer::report_for(core::RsuId id) const {
  auto it = reports_.find(id);
  VLM_REQUIRE(it != reports_.end(), "no report from this RSU this period");
  return it->second;
}

core::PairEstimate CentralServer::estimate(core::RsuId a,
                                           core::RsuId b) const {
  VLM_REQUIRE(a != b, "point-to-point estimation needs two distinct RSUs");
  return scheme_->estimator().estimate(rebuild_state(report_for(a)),
                                       rebuild_state(report_for(b)));
}

core::EstimateInterval CentralServer::estimate_with_interval(
    core::RsuId a, core::RsuId b, double z) const {
  VLM_REQUIRE(a != b, "point-to-point estimation needs two distinct RSUs");
  const core::IntervalEstimator interval(scheme_->s(), z);
  return interval.estimate(rebuild_state(report_for(a)),
                           rebuild_state(report_for(b)));
}

std::vector<core::RsuId> CentralServer::matrix_order() const {
  std::vector<core::RsuId> order;
  order.reserve(reports_.size());
  for (const auto& [id, report] : reports_) order.push_back(id);
  std::sort(order.begin(), order.end());
  return order;
}

core::OdMatrix CentralServer::estimate_matrix(double z) const {
  const std::vector<core::RsuId> order = matrix_order();
  VLM_REQUIRE(order.size() >= 2, "an OD matrix needs at least two reports");
  std::vector<core::RsuState> states;
  states.reserve(order.size());
  for (core::RsuId id : order) states.push_back(rebuild_state(report_for(id)));
  core::OdMatrix matrix = core::estimate_od_matrix(
      states, scheme_->s(), z, decode_workers_, &stats_.decode);
  // Decode-time estimator health: saturation/drift over the decoded
  // states plus each measured cell's predicted relative error.
  obs::health::HealthOptions health_options;
  health_options.target_load_factor = scheme_->target_load_factor();
  stats_.health = obs::health::assess_rsus(states, health_options);
  obs::health::assess_pairs(matrix, stats_.health, stats_.decode.workers);
  return matrix;
}

}  // namespace vlm::vcps

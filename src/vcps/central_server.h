// Central server: history tracking, per-period array sizing, report
// ingestion, and pairwise estimation (the offline decoding phase).
//
// The server never sees a vehicle identifier — only counters and bit
// arrays. Each period it (1) tells every RSU its array size, derived from
// the exponentially weighted history of that RSU's point volume
// (Section IV-B's n̄_x) under the configured Scheme (VLM variable-length,
// FBM fixed-length, or any future implementation — the server is fully
// scheme-generic), (2) ingests reports, decoding each report's bytes
// once into a stored RsuState and updating the history, and (3) answers
// point-to-point queries via the Eq. 5 MLE straight from the stored
// states; the full K×K matrix decode runs the fused kernel over a
// parallel pair pipeline and records throughput counters in `stats()`.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "core/od_matrix.h"
#include "core/report_validator.h"
#include "core/rsu_state.h"
#include "core/scheme.h"
#include "core/types.h"
#include "obs/health.h"
#include "vcps/messages.h"

namespace vlm::vcps {

// Optional defenses against polluted reports (see vcps/adversary.h for
// the threat model each check addresses).
struct ReportValidationConfig {
  bool enabled = false;
  // Occupancy z-score band for the zero count given the counter; catches
  // bit-painting / saturation and counter-vs-bits inconsistencies.
  double tolerance_sigmas = 6.0;
  // Volume anomaly band vs the RSU's history: a counter more than
  // `max_history_ratio` times above (or below 1/ratio of) the expected
  // volume is quarantined; catches reply floods, which are bit-level
  // indistinguishable from honest traffic. Disabled for RSUs whose
  // history is still below `min_history_for_ratio_check`.
  double max_history_ratio = 8.0;
  double min_history_for_ratio_check = 50.0;
};

enum class QuarantineReason {
  kNone,
  // Counter inconsistent with the set bits, or (validation on) a
  // ReportValidator verdict other than plausible.
  kZeroCountAnomaly,
  kVolumeAnomaly,  // counter inconsistent with history
  // Reports the period cannot use: they are counted and dropped, and
  // leave every stored state, history and quarantine entry as it was.
  kUnregistered,  // from an RSU that was never registered
  kWrongPeriod,   // for a period other than the current one (e.g. late)
  kDuplicate,     // a second report from an RSU that already reported
};

struct CentralServerConfig {
  // The masking scheme the deployment runs. Selecting VLM vs FBM (or any
  // other Scheme implementation) is this single construction.
  core::SchemePtr scheme = core::make_vlm_scheme();
  // EWMA weight of the newest period when updating history volumes.
  double history_alpha = 0.25;
  ReportValidationConfig validation = {};
  // Threads for the K×K matrix decode: 1 = serial, 0 = one per core.
  // Any value yields bit-identical estimates.
  unsigned decode_workers = 0;
};

// Per-period observability: what the ingest and decode phases did and
// how long they took. Reset by begin_period(); decode fields cover the
// most recent estimate_matrix() call.
struct PipelineStats {
  std::uint64_t period = 0;
  std::size_t reports_ingested = 0;
  std::size_t reports_quarantined = 0;
  double ingest_seconds = 0.0;  // cumulative wall time inside ingest()
  core::DecodeStats decode;
  // Estimator-health verdicts of the most recent estimate_matrix() call:
  // per-RSU saturation / load-factor drift plus the accuracy model's
  // predicted relative error over the decoded pairs.
  obs::health::HealthSummary health;
};

// The server's view of a report: BitArray::from_bytes, then
// RsuState::from_report. Throws std::invalid_argument on a report either
// rejects. Archive analysis rebuilds its states through here; the server
// itself decodes each report once, in ingest().
core::RsuState rebuild_state(const RsuReport& report);

class CentralServer {
 public:
  explicit CentralServer(const CentralServerConfig& config);

  const core::Scheme& scheme() const { return *scheme_; }

  // Registers an RSU with its initial historical average volume (from
  // past data, as the paper assumes). Must precede any sizing query.
  void register_rsu(core::RsuId id, double initial_history_volume);

  bool is_registered(core::RsuId id) const;
  double history_volume(core::RsuId id) const;

  // m_x for the upcoming period under the configured scheme.
  std::size_t array_size_for(core::RsuId id) const;

  // Starts period `period`, discarding the previous period's reports.
  void begin_period(std::uint64_t period);
  std::uint64_t current_period() const { return period_; }

  // Validates a report, decodes its bytes into the RSU's stored state
  // (BitArray::from_bytes: one copy that also counts the ones) and
  // updates the RSU's history volume. A report from an unregistered RSU,
  // for another period, or from an RSU that already reported this period
  // is quarantined as kUnregistered, kWrongPeriod or kDuplicate: it is
  // counted, never decoded, and changes no stored state, history or
  // quarantine entry. Throws std::invalid_argument for an array size that
  // is not a power of two >= 2 or a byte buffer that does not match it.
  // A report no honest RSU can send (a counter below its set bits, or a
  // non-zero counter over an all-zero array) is always quarantined as
  // kZeroCountAnomaly; with validation enabled, implausible reports are
  // quarantined too. Quarantined reports enter neither estimates nor the
  // history, and the returned reason says why.
  QuarantineReason ingest(const RsuReport& report);

  std::size_t reports_received() const { return ids_.size(); }
  // RSUs whose report for this period was quarantined on its content
  // (kZeroCountAnomaly, kVolumeAnomaly). The dropped reports of the
  // other reasons are only counted, in stats().reports_quarantined.
  std::size_t quarantined_count() const { return quarantined_.size(); }
  QuarantineReason quarantine_reason(core::RsuId id) const;

  // Point-to-point estimate between two reported RSUs for the current
  // period, read from the stored states. Throws if either report is
  // missing.
  core::PairEstimate estimate(core::RsuId a, core::RsuId b) const;

  // Same, with a confidence interval from the occupancy-exact accuracy
  // model (`z` = normal quantile, 1.96 ~ 95%).
  core::EstimateInterval estimate_with_interval(core::RsuId a, core::RsuId b,
                                                double z = 1.96) const;

  // The full point-to-point matrix over every RSU that reported this
  // period, in the order given by `matrix_order()` (ascending RsuId).
  // Needs >= 2 reports. Runs the batched decode pipeline and its
  // pair-health pass (both on config.decode_workers threads) over the
  // stored states, without copying their arrays, and records its
  // throughput in stats().decode. The matrix keeps its own copy of what
  // its cells read, so it stays valid after the next begin_period.
  const std::vector<core::RsuId>& matrix_order() const { return ids_; }
  core::OdMatrix estimate_matrix(double z = 1.96) const;

  // Ingest/decode counters and timings for the current period.
  const PipelineStats& stats() const { return stats_; }

 private:
  const core::RsuState& state_for(core::RsuId id) const;

  core::SchemePtr scheme_;
  double history_alpha_;
  ReportValidationConfig validation_;
  unsigned decode_workers_;
  std::uint64_t period_ = 0;
  std::unordered_map<core::RsuId, double> history_;
  // This period's accepted reports, decoded: ids_ ascending, and
  // states_[i] is the state of ids_[i].
  std::vector<core::RsuId> ids_;
  std::vector<core::RsuState> states_;
  std::unordered_map<core::RsuId, QuarantineReason> quarantined_;
  mutable PipelineStats stats_;  // decode fields written by const decode
};

}  // namespace vlm::vcps

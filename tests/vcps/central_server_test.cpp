#include "vcps/central_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bit_array.h"
#include "common/hashing.h"
#include "core/interval.h"
#include "core/rsu_state.h"
#include "obs/metrics.h"

namespace vlm::vcps {
namespace {

CentralServerConfig vlm_config() {
  CentralServerConfig config;
  config.scheme = core::make_vlm_scheme({.s = 2, .load_factor = 8.0});
  config.history_alpha = 0.5;
  return config;
}

RsuReport make_report(core::RsuId id, std::uint64_t period,
                      std::uint64_t counter, std::size_t m,
                      std::initializer_list<std::size_t> ones) {
  common::BitArray bits(m);
  for (std::size_t i : ones) bits.set(i);
  return RsuReport{id, period, counter, m, bits.to_bytes()};
}

TEST(CentralServer, SizesFromHistoryUnderVlmPolicy) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 451'000.0);
  server.register_rsu(core::RsuId{2}, 28'000.0);
  EXPECT_EQ(server.array_size_for(core::RsuId{1}), std::size_t{1} << 22);
  EXPECT_EQ(server.array_size_for(core::RsuId{2}), std::size_t{1} << 18);
}

TEST(CentralServer, FixedSizeUnderFbmPolicy) {
  CentralServerConfig config = vlm_config();
  config.scheme = core::make_fbm_scheme({.s = 2, .array_size = 1 << 17});
  CentralServer server(config);
  server.register_rsu(core::RsuId{1}, 451'000.0);
  EXPECT_EQ(server.array_size_for(core::RsuId{1}), std::size_t{1} << 17);
}

TEST(CentralServer, HistoryUpdatesByEwma) {
  CentralServer server(vlm_config());  // alpha = 0.5
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.begin_period(1);
  server.ingest(make_report(core::RsuId{1}, 1, 2000, 1 << 13, {1, 2, 3}));
  EXPECT_DOUBLE_EQ(server.history_volume(core::RsuId{1}), 1500.0);
}

TEST(CentralServer, RejectsBadReports) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.begin_period(1);
  // Unregistered RSU, and a report for another period: quarantined
  // without being decoded.
  EXPECT_EQ(server.ingest(make_report(core::RsuId{9}, 1, 10, 1 << 13, {1})),
            QuarantineReason::kUnregistered);
  EXPECT_EQ(server.ingest(make_report(core::RsuId{1}, 2, 10, 1 << 13, {1})),
            QuarantineReason::kWrongPeriod);
  // Byte buffer length mismatch, either way, and a bit set past the
  // array size (m = 4 leaves four unused bits in its byte): the buffers
  // BitArray::from_bytes rejects.
  RsuReport bad = make_report(core::RsuId{1}, 1, 10, 1 << 13, {1});
  bad.bits.pop_back();
  EXPECT_THROW(server.ingest(bad), std::invalid_argument);
  bad.bits.resize(bad.bits.size() + 2);
  EXPECT_THROW(server.ingest(bad), std::invalid_argument);
  RsuReport past_end = make_report(core::RsuId{1}, 1, 2, 4, {1});
  past_end.bits[0] |= 0x10;
  EXPECT_THROW(server.ingest(past_end), std::invalid_argument);
  // Duplicate: the first report stays.
  server.ingest(make_report(core::RsuId{1}, 1, 10, 1 << 13, {1}));
  EXPECT_EQ(server.ingest(make_report(core::RsuId{1}, 1, 10, 1 << 13, {1})),
            QuarantineReason::kDuplicate);
  EXPECT_EQ(server.reports_received(), 1u);
  EXPECT_EQ(server.quarantine_reason(core::RsuId{1}), QuarantineReason::kNone);
  EXPECT_EQ(server.stats().reports_ingested, 1u);
  EXPECT_EQ(server.stats().reports_quarantined, 3u);
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same(const core::EstimateInterval& x, const core::EstimateInterval& y) {
  return same_bits(x.n_c_hat, y.n_c_hat) && same_bits(x.stddev, y.stddev) &&
         same_bits(x.lower, y.lower) && same_bits(x.upper, y.upper) &&
         same_bits(x.floor_stddev, y.floor_stddev) && x.degraded == y.degraded;
}

bool same(const core::PairEstimate& x, const core::PairEstimate& y) {
  return same_bits(x.n_c_hat, y.n_c_hat) && same_bits(x.raw, y.raw) &&
         same_bits(x.v_x, y.v_x) && same_bits(x.v_y, y.v_y) &&
         same_bits(x.v_c, y.v_c) && x.m_x == y.m_x && x.m_y == y.m_y &&
         x.words_scanned == y.words_scanned && x.saturated == y.saturated;
}

// An honest report of vehicles [first_vehicle, first_vehicle + volume):
// vehicle v sets bit hash(v, slot) mod m, with one of s = 2 slots per
// RSU as in the VLM encoding, so overlapping ranges share real traffic.
RsuReport traffic_report(core::RsuId id, std::uint64_t period, std::size_t m,
                         std::uint64_t first_vehicle, std::uint64_t volume) {
  const std::uint64_t slot = common::mix64(id.value) % 2;
  core::RsuState state(m);
  for (std::uint64_t v = first_vehicle; v < first_vehicle + volume; ++v) {
    state.record(common::mix64(v ^ (slot << 62)) % m);
  }
  return RsuReport{id, period, state.counter(), m, state.bits().to_bytes()};
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(CentralServer, StoredStatesMatchRebuiltReports) {
  // Reports arrive out of id order, with a quarantined RSU in the middle;
  // every answer the server gives from its stored states must equal the
  // per-pair oracle on states rebuilt from the same reports.
  CentralServer server(vlm_config());
  const std::vector<RsuReport> reports = {
      traffic_report(core::RsuId{5}, 1, 1 << 13, 0, 900),
      traffic_report(core::RsuId{2}, 1, 1 << 12, 300, 400),
      make_report(core::RsuId{9}, 1, 1, 1 << 13, {1, 2}),  // impossible
      traffic_report(core::RsuId{1}, 1, 1 << 14, 100, 1500),
      traffic_report(core::RsuId{7}, 1, 1 << 13, 600, 800),
  };
  for (const RsuReport& report : reports) {
    server.register_rsu(report.rsu, 1000.0);
  }
  server.begin_period(1);
  for (const RsuReport& report : reports) {
    EXPECT_EQ(server.ingest(report), report.rsu == core::RsuId{9}
                                         ? QuarantineReason::kZeroCountAnomaly
                                         : QuarantineReason::kNone);
  }

  const std::vector<core::RsuId> order = server.matrix_order();
  const std::vector<core::RsuId> want = {core::RsuId{1}, core::RsuId{2},
                                         core::RsuId{5}, core::RsuId{7}};
  EXPECT_EQ(order, want);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  std::vector<core::RsuState> rebuilt;
  for (const core::RsuId id : order) {
    for (const RsuReport& report : reports) {
      if (report.rsu == id) rebuilt.push_back(rebuild_state(report));
    }
  }
  ASSERT_EQ(rebuilt.size(), order.size());

  const core::IntervalEstimator oracle(server.scheme().s(), 1.96);
  const core::OdMatrix matrix = server.estimate_matrix();
  ASSERT_EQ(matrix.rsu_count(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = 0; j < order.size(); ++j) {
      if (i == j) continue;
      SCOPED_TRACE(testing::Message() << "pair " << order[i].value << ", "
                                      << order[j].value);
      const core::EstimateInterval want_interval =
          oracle.estimate(rebuilt[i], rebuilt[j]);
      EXPECT_TRUE(same(server.estimate_with_interval(order[i], order[j]),
                       want_interval));
      EXPECT_TRUE(same(server.estimate(order[i], order[j]),
                       server.scheme().estimator().estimate(rebuilt[i],
                                                            rebuilt[j])));
      if (i < j) {
        EXPECT_TRUE(same(matrix.at(i, j), want_interval));
      }
    }
  }
}

TEST(CentralServer, LateAndDuplicateReportsLeaveThePeriodUnchanged) {
  // Reports that arrive during the close of period 2, after every RSU
  // has reported: a repeat with different content, a late report of
  // period 1, a report from an unknown RSU, and a second report from an
  // RSU whose first one was quarantined. None may abort the close or
  // change a stored state, a history value or a matrix cell.
  CentralServer server(vlm_config());
  for (std::uint64_t id = 1; id <= 4; ++id) {
    server.register_rsu(core::RsuId{id}, 1000.0);
  }
  server.begin_period(1);
  server.begin_period(2);
  server.ingest(traffic_report(core::RsuId{1}, 2, 1 << 13, 0, 700));
  server.ingest(traffic_report(core::RsuId{2}, 2, 1 << 12, 200, 500));
  server.ingest(traffic_report(core::RsuId{3}, 2, 1 << 13, 400, 900));
  ASSERT_EQ(server.ingest(make_report(core::RsuId{4}, 2, 1, 1 << 13, {1, 2})),
            QuarantineReason::kZeroCountAnomaly);

  std::vector<double> history;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    history.push_back(server.history_volume(core::RsuId{id}));
  }
  const core::OdMatrix before = server.estimate_matrix();
  const std::size_t quarantined_before = server.stats().reports_quarantined;
  const std::uint64_t duplicate_before =
      counter_value("server/quarantine/duplicate");
  const std::uint64_t wrong_period_before =
      counter_value("server/quarantine/wrong_period");
  const std::uint64_t unregistered_before =
      counter_value("server/quarantine/unregistered");

  EXPECT_EQ(server.ingest(traffic_report(core::RsuId{2}, 2, 1 << 12, 0, 90)),
            QuarantineReason::kDuplicate);
  EXPECT_EQ(server.ingest(traffic_report(core::RsuId{3}, 1, 1 << 13, 0, 80)),
            QuarantineReason::kWrongPeriod);
  EXPECT_EQ(server.ingest(traffic_report(core::RsuId{8}, 2, 1 << 13, 0, 80)),
            QuarantineReason::kUnregistered);
  EXPECT_EQ(server.ingest(traffic_report(core::RsuId{4}, 2, 1 << 13, 0, 80)),
            QuarantineReason::kDuplicate);

  EXPECT_EQ(server.reports_received(), 3u);
  EXPECT_EQ(server.quarantined_count(), 1u);
  EXPECT_EQ(server.quarantine_reason(core::RsuId{4}),
            QuarantineReason::kZeroCountAnomaly);
  EXPECT_EQ(server.quarantine_reason(core::RsuId{8}), QuarantineReason::kNone);
  EXPECT_EQ(server.stats().reports_quarantined, quarantined_before + 4);
  EXPECT_EQ(counter_value("server/quarantine/duplicate") - duplicate_before,
            2u);
  EXPECT_EQ(
      counter_value("server/quarantine/wrong_period") - wrong_period_before,
      1u);
  EXPECT_EQ(
      counter_value("server/quarantine/unregistered") - unregistered_before,
      1u);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(server.history_volume(core::RsuId{id}), history[id - 1])
        << "RSU " << id;
  }
  const core::OdMatrix after = server.estimate_matrix();
  ASSERT_EQ(after.rsu_count(), before.rsu_count());
  for (std::size_t a = 0; a < after.rsu_count(); ++a) {
    for (std::size_t b = a + 1; b < after.rsu_count(); ++b) {
      EXPECT_TRUE(same(after.at(a, b), before.at(a, b)))
          << "cell " << a << ", " << b;
    }
  }
}

TEST(CentralServer, PeriodsMustAdvance) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.begin_period(5);
  server.ingest(make_report(core::RsuId{1}, 5, 10, 1 << 13, {1}));
  EXPECT_THROW(server.begin_period(5), std::invalid_argument);
  EXPECT_NO_THROW(server.begin_period(6));
}

TEST(CentralServer, EstimatesFromReports) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.register_rsu(core::RsuId{2}, 1000.0);
  server.begin_period(1);
  // Two small hand-made reports; the estimate just needs to be finite and
  // the pipeline to run (estimator accuracy is covered in core tests).
  server.ingest(make_report(core::RsuId{1}, 1, 3, 1 << 13, {1, 2, 3}));
  server.ingest(make_report(core::RsuId{2}, 1, 3, 1 << 13, {1, 5, 6}));
  const auto estimate = server.estimate(core::RsuId{1}, core::RsuId{2});
  EXPECT_GE(estimate.n_c_hat, 0.0);
  EXPECT_EQ(estimate.m_y, std::size_t{1} << 13);
}

TEST(CentralServer, EstimateRequiresBothReports) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.register_rsu(core::RsuId{2}, 1000.0);
  server.begin_period(1);
  server.ingest(make_report(core::RsuId{1}, 1, 3, 1 << 13, {1, 2, 3}));
  EXPECT_THROW((void)server.estimate(core::RsuId{1}, core::RsuId{2}),
               std::invalid_argument);
  EXPECT_THROW((void)server.estimate(core::RsuId{1}, core::RsuId{1}),
               std::invalid_argument);
}

TEST(CentralServer, RejectsInconsistentCounterBitPatterns) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.register_rsu(core::RsuId{2}, 1000.0);
  server.begin_period(1);
  // Counter 1 but two bits set: impossible; quarantined at ingest even
  // with validation off, so the pair has no report to estimate from.
  EXPECT_EQ(server.ingest(make_report(core::RsuId{1}, 1, 1, 1 << 13, {1, 2})),
            QuarantineReason::kZeroCountAnomaly);
  server.ingest(make_report(core::RsuId{2}, 1, 3, 1 << 13, {1, 5, 6}));
  EXPECT_THROW((void)server.estimate(core::RsuId{1}, core::RsuId{2}),
               std::invalid_argument);
}

TEST(CentralServer, UndecodableReportsNeverReachTheMatrix) {
  // Reports no honest RSU can send, on a server with validation off.
  // Each used to be stored and then break every estimate_matrix of its
  // period at state rebuild, although the other pairs decode fine.
  struct Case {
    const char* what;
    std::uint64_t counter;
    std::size_t m;
    std::initializer_list<std::size_t> ones;
    bool malformed;  // rejected with invalid_argument, not quarantined
  };
  const Case cases[] = {
      {"counter below the set bits", 1, 1 << 13, {1, 2}, false},
      {"counter 1 over an all-zero array", 1, 1 << 13, {}, false},
      {"counter 2 over an all-zero array", 2, 1 << 13, {}, false},
      {"array size not a power of two", 3, 24, {1, 2, 3}, true},
      {"array size below two", 1, 1, {0}, true},
  };
  CentralServer server(vlm_config());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    server.register_rsu(core::RsuId{id}, 1000.0);
  }
  std::uint64_t period = 0;
  for (const Case& c : cases) {
    server.begin_period(++period);
    const double history = server.history_volume(core::RsuId{1});
    RsuReport bad = make_report(core::RsuId{1}, period, c.counter, c.m, c.ones);
    if (c.malformed) {
      EXPECT_THROW(server.ingest(std::move(bad)), std::invalid_argument)
          << c.what;
      EXPECT_EQ(server.quarantined_count(), 0u) << c.what;
    } else {
      EXPECT_EQ(server.ingest(std::move(bad)),
                QuarantineReason::kZeroCountAnomaly)
          << c.what;
      EXPECT_EQ(server.quarantine_reason(core::RsuId{1}),
                QuarantineReason::kZeroCountAnomaly)
          << c.what;
    }
    server.ingest(make_report(core::RsuId{2}, period, 3, 1 << 13, {1, 5, 6}));
    server.ingest(make_report(core::RsuId{3}, period, 2, 1 << 12, {5, 9}));
    EXPECT_EQ(server.reports_received(), 2u) << c.what;
    EXPECT_DOUBLE_EQ(server.history_volume(core::RsuId{1}), history) << c.what;
    EXPECT_EQ(server.estimate_matrix().rsu_count(), 2u) << c.what;
  }
  // An idle RSU (counter 0, all-zero array) is honest and still stored.
  server.begin_period(++period);
  EXPECT_EQ(server.ingest(make_report(core::RsuId{1}, period, 0, 1 << 13, {})),
            QuarantineReason::kNone);
  EXPECT_EQ(server.reports_received(), 1u);
}

TEST(CentralServer, IntervalEstimateBracketsPointEstimate) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.register_rsu(core::RsuId{2}, 1000.0);
  server.begin_period(1);
  server.ingest(make_report(core::RsuId{1}, 1, 200, 1 << 13,
                            {1, 2, 3, 40, 41, 42, 100, 200}));
  server.ingest(make_report(core::RsuId{2}, 1, 150, 1 << 13,
                            {1, 2, 3, 99, 500, 600}));
  const auto point = server.estimate(core::RsuId{1}, core::RsuId{2});
  const auto interval =
      server.estimate_with_interval(core::RsuId{1}, core::RsuId{2});
  EXPECT_DOUBLE_EQ(interval.n_c_hat, point.n_c_hat);
  EXPECT_LE(interval.lower, interval.n_c_hat);
  EXPECT_GE(interval.upper, interval.n_c_hat);
}

TEST(CentralServer, MatrixCoversAllReportedPairs) {
  CentralServer server(vlm_config());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    server.register_rsu(core::RsuId{id}, 1000.0);
  }
  server.begin_period(1);
  server.ingest(make_report(core::RsuId{1}, 1, 3, 1 << 13, {1, 2, 3}));
  server.ingest(make_report(core::RsuId{2}, 1, 3, 1 << 13, {1, 5, 6}));
  server.ingest(make_report(core::RsuId{3}, 1, 2, 1 << 13, {7, 8}));
  const auto order = server.matrix_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), core::RsuId{1});
  const auto matrix = server.estimate_matrix();
  EXPECT_EQ(matrix.rsu_count(), 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      EXPECT_GE(matrix.at(a, b).n_c_hat, 0.0);
    }
  }
}

TEST(CentralServer, MatrixNeedsTwoReports) {
  CentralServer server(vlm_config());
  server.register_rsu(core::RsuId{1}, 1000.0);
  server.begin_period(1);
  server.ingest(make_report(core::RsuId{1}, 1, 3, 1 << 13, {1, 2, 3}));
  EXPECT_THROW((void)server.estimate_matrix(), std::invalid_argument);
}

TEST(CentralServer, Guards) {
  CentralServerConfig config = vlm_config();
  config.history_alpha = 0.0;
  EXPECT_THROW(CentralServer{config}, std::invalid_argument);
  CentralServer server(vlm_config());
  EXPECT_THROW((void)server.history_volume(core::RsuId{1}),
               std::invalid_argument);
  server.register_rsu(core::RsuId{1}, 10.0);
  EXPECT_THROW(server.register_rsu(core::RsuId{1}, 10.0),
               std::invalid_argument);
  EXPECT_THROW(server.register_rsu(core::RsuId{2}, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlm::vcps

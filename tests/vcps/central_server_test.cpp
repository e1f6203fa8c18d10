#include "vcps/central_server.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "common/bit_array.h"

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
  // Unregistered RSU.
  EXPECT_THROW(server.ingest(make_report(core::RsuId{9}, 1, 10, 1 << 13, {1})),
               std::invalid_argument);
  // Wrong period.
  EXPECT_THROW(server.ingest(make_report(core::RsuId{1}, 2, 10, 1 << 13, {1})),
               std::invalid_argument);
  // Byte buffer length mismatch, either way, and a bit set past the
  // array size (m = 4 leaves four unused bits in its byte): the buffers
  // BitArray::from_bytes rejects, checked in place.
  RsuReport bad = make_report(core::RsuId{1}, 1, 10, 1 << 13, {1});
  bad.bits.pop_back();
  EXPECT_THROW(server.ingest(bad), std::invalid_argument);
  bad.bits.resize(bad.bits.size() + 2);
  EXPECT_THROW(server.ingest(bad), std::invalid_argument);
  RsuReport past_end = make_report(core::RsuId{1}, 1, 2, 4, {1});
  past_end.bits[0] |= 0x10;
  EXPECT_THROW(server.ingest(past_end), std::invalid_argument);
  // Duplicate.
  server.ingest(make_report(core::RsuId{1}, 1, 10, 1 << 13, {1}));
  EXPECT_THROW(server.ingest(make_report(core::RsuId{1}, 1, 10, 1 << 13, {1})),
               std::invalid_argument);
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

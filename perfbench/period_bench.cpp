// period_bench — end-to-end benchmark of whole VLM measurement periods.
//
// One measurement period is the unit of work: RSUs fill bit arrays sized
// to their history, report at period close, and the central server
// decodes point-to-point volumes with the Eq. 5 MLE. This program drives
// such periods through the public API only —
//
//   VcpsSimulation::begin_period → drive_vehicles → end_period →
//   CentralServer::estimate_matrix (or a closed loop of point queries) →
//   Rsu::make_report + vcps::write_archive into memory
//
// — and reports what a user of the system sees: seconds per period,
// seconds from the last vehicle to the answers, query latency, set-up
// time, peak memory, and accuracy against the workload's ground truth.
// Every output is checked outside the timed period against per-pair
// core::IntervalEstimator oracles and an archive round trip.
//
//   period_bench --workload dense-k24 --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same periods untraced, then once with one ingest
// worker, then traced: a span around every call into the library (kept in
// memory) plus the library's own flight recorder, written together as one
// Chrome trace JSON. The traced periods give the per-layer metrics.
//
// Output: one line per metric ("metric <name> <value> <unit>"), then one
// JSON object {correct, attempted, failed, metrics} as the last line.
// Exits 1 on any correctness mismatch, 2 on bad arguments or environment.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/bit_array.h"
#include "common/cli.h"
#include "common/hashing.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/uninit.h"
#include "core/interval.h"
#include "core/od_matrix.h"
#include "core/rsu_state.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/multi_rsu_workload.h"
#include "vcps/archive.h"
#include "vcps/simulation.h"

namespace {

using namespace vlm;

// ---------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  std::size_t rsus;
  std::uint64_t vehicles;
  double query_loss;
  double reply_loss;
  bool validation;
  // 0: decode the full OD matrix each period. Otherwise: this many
  // estimate_with_interval calls per period, back to back, and no matrix.
  std::size_t queries_per_period;
  // Matrix cells checked against the oracle per period (0 = every cell).
  std::size_t checked_cells;
};

constexpr WorkloadSpec kWorkloads[] = {
    // Ingest, report serialization and the archive carry the period.
    {"dense-k24", 24, 2'000'000, 0.0, 0.0, false, 0, 0},
    // Decode-bound: half a million pairs, ingest is a small share.
    {"city-k1024", 1024, 500'000, 0.0, 0.0, false, 0, 1000},
    // Many reads of stored reports, lossy channel, validation on.
    {"query-k256-lossy", 256, 1'000'000, 0.02, 0.02, true, 2000, 0},
};

// Pairs whose true common volume is below this floor are left out of the
// accuracy metrics: their relative error is dominated by slot noise.
constexpr std::uint64_t kTruthFloor = 1000;
constexpr double kIntervalZ = 1.96;  // the server's default 95% interval
constexpr int kSetupRepeats = 5;     // set-up time is the median of these
constexpr std::size_t kMinPeriods = 3;
// Pairs per traced period whose state rebuild and interval estimate are
// timed separately (core.state_rebuild_us, core.interval_estimate_us).
constexpr std::size_t kCoreSamplePairs = 64;

const char* const kRefusedEnv[] = {"VLM_KERNELS",         "VLM_DECODE",
                                   "VLM_INGEST",          "VLM_INGEST_PIPELINE",
                                   "VLM_METRICS",         "VLM_TRACE"};

// ---------------------------------------------------------------------
// In-memory spans around each call into the library

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Record {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;
    unsigned thread;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Starts a span; returns its id (kNoParent when the log is off).
  std::uint32_t open(const char* name, std::uint32_t parent) {
    if (!enabled()) return kNoParent;
    const std::uint64_t now = obs::trace::now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(Record{name, now, now, parent, thread_index()});
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  void close(std::uint32_t id) {
    if (id == kNoParent) return;
    const std::uint64_t now = obs::trace::now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[id].end_ns = now;
  }

  std::vector<Record> records() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  static unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

// Times one call; records it as a span when the log is on.
class Timed {
 public:
  Timed(SpanLog& log, const char* name,
        std::uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.open(name, parent)) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() { finish(); }

  double finish() {
    if (!finished_) {
      seconds_ = watch_.seconds();
      log_.close(id_);
      finished_ = true;
    }
    return seconds_;
  }
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  obs::Stopwatch watch_;
  double seconds_ = 0.0;
  bool finished_ = false;
};

// ---------------------------------------------------------------------
// Set-up: the workload's itineraries and ground truth, and the system

// Every vehicle's visit list, CSR layout: vehicle v visits
// positions[offsets[v]] .. positions[offsets[v + 1]].
struct Itineraries {
  std::vector<std::uint32_t> positions;
  std::vector<std::uint64_t> offsets{0};
};

struct TruthPair {
  std::uint32_t a;
  std::uint32_t b;
  double volume;
};

struct Setup {
  std::unique_ptr<traffic::MultiRsuWorkload> workload;
  Itineraries trips;
  std::vector<double> query_cdf;     // point volumes, cumulative
  std::vector<TruthPair> floor_pairs;  // every pair with volume >= floor
  std::unique_ptr<vcps::VcpsSimulation> sim;
};

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed,
                 unsigned workers) {
  Setup setup;
  traffic::MultiRsuConfig workload_config;
  workload_config.rsu_count = spec.rsus;
  workload_config.vehicle_count = spec.vehicles;
  workload_config.seed = seed;
  setup.workload = std::make_unique<traffic::MultiRsuWorkload>(workload_config);
  Itineraries& trips = setup.trips;
  trips.offsets.reserve(spec.vehicles + 1);
  trips.positions.reserve(spec.vehicles * 4);
  // One generation pass: the workload gathers its ground truth while the
  // visit lists are copied out, so ingest later reads them from memory.
  setup.workload->for_each_vehicle(
      [&trips](std::uint64_t, std::span<const std::uint32_t> rsus) {
        trips.positions.insert(trips.positions.end(), rsus.begin(),
                               rsus.end());
        trips.offsets.push_back(trips.positions.size());
      });

  const std::vector<std::uint64_t>& volumes = setup.workload->node_volumes();
  double total = 0.0;
  for (const std::uint64_t v : volumes) {
    total += static_cast<double>(v);
    setup.query_cdf.push_back(total);
  }
  for (std::uint32_t a = 0; a < spec.rsus; ++a) {
    for (std::uint32_t b = a + 1; b < spec.rsus; ++b) {
      const std::uint64_t truth = setup.workload->pair_volume(a, b);
      if (truth >= kTruthFloor) {
        setup.floor_pairs.push_back({a, b, static_cast<double>(truth)});
      }
    }
  }

  vcps::SimulationConfig config;
  config.seed = seed;
  config.channel.query_loss = spec.query_loss;
  config.channel.reply_loss = spec.reply_loss;
  config.server.validation.enabled = spec.validation;
  config.server.decode_workers = workers;
  std::vector<vcps::RsuSite> sites;
  for (std::size_t r = 0; r < spec.rsus; ++r) {
    sites.push_back(
        vcps::RsuSite{core::RsuId{r + 1}, static_cast<double>(volumes[r])});
  }
  setup.sim = std::make_unique<vcps::VcpsSimulation>(config, sites);
  return setup;
}

// Feeds drive_vehicles from the pre-materialized itineraries. The time
// spent in here is the harness's share of ingest (traffic.provider_s).
class Provider {
 public:
  Provider(const Itineraries& trips, std::size_t rsu_count, SpanLog& log)
      : trips_(trips), rsu_count_(rsu_count), log_(log) {}

  vcps::BulkItineraryProvider bulk() {
    return [this](std::uint64_t begin, std::uint64_t end,
                  common::UninitVector<std::uint32_t>& positions,
                  std::vector<std::uint64_t>& offsets,
                  std::vector<std::uint64_t>& counts) {
      const std::uint32_t span =
          log_.open("traffic.provider", parent_.load(std::memory_order_relaxed));
      const obs::Stopwatch watch;
      const std::uint64_t first = trips_.offsets[begin];
      const std::uint64_t last = trips_.offsets[end];
      positions.resize(last - first);
      std::copy(trips_.positions.begin() + static_cast<std::ptrdiff_t>(first),
                trips_.positions.begin() + static_cast<std::ptrdiff_t>(last),
                positions.begin());
      offsets.resize(end - begin + 1);
      for (std::uint64_t i = 0; i <= end - begin; ++i) {
        offsets[i] = trips_.offsets[begin + i] - first;
      }
      counts.assign(rsu_count_, 0);
      for (const std::uint32_t p : positions) ++counts[p];
      nanos_.fetch_add(watch.nanos(), std::memory_order_relaxed);
      log_.close(span);
    };
  }

  // Parent span of the provider spans (the enclosing drive_vehicles).
  void set_parent(std::uint32_t parent) {
    parent_.store(parent, std::memory_order_relaxed);
  }
  // Seconds spent inside the provider since the last call, summed across
  // the threads that called it.
  double take_seconds() {
    return static_cast<double>(nanos_.exchange(0)) * 1e-9;
  }

 private:
  const Itineraries& trips_;
  std::size_t rsu_count_;
  SpanLog& log_;
  std::atomic<std::uint32_t> parent_{SpanLog::kNoParent};
  std::atomic<std::uint64_t> nanos_{0};
};

// ---------------------------------------------------------------------
// Registry reads (obs spans and counters, by name)

std::optional<double> counter_value(const obs::Snapshot& s,
                                    std::string_view name) {
  for (const auto& [key, value] : s.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return std::nullopt;
}

std::optional<double> span_seconds(const obs::Snapshot& s,
                                   std::string_view name) {
  for (const auto& [key, summary] : s.histograms) {
    if (key == name) return summary.total;
  }
  return std::nullopt;
}

// after − before for a name present after; absent otherwise.
template <typename Read>
std::optional<double> delta(const obs::Snapshot& before,
                            const obs::Snapshot& after, std::string_view name,
                            Read read) {
  const std::optional<double> end = read(after, name);
  if (!end) return std::nullopt;
  return *end - read(before, name).value_or(0.0);
}

// ---------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// Named per-period samples; a name absent in any sample stays absent.
class Series {
 public:
  void add(const std::string& name, const char* unit,
           std::optional<double> value) {
    auto [it, inserted] = entries_.try_emplace(name);
    if (inserted) {
      order_.push_back(name);
      it->second.unit = unit;
    }
    if (value) {
      it->second.values.push_back(*value);
    } else {
      it->second.absent = true;
    }
  }

  struct Entry {
    const char* unit = "";
    std::vector<double> values;
    bool absent = false;
  };
  const std::vector<std::string>& names() const { return order_; }
  const Entry& at(const std::string& name) const { return entries_.at(name); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------
// One measurement period

struct Query {
  std::uint32_t a;
  std::uint32_t b;
};

struct PeriodResult {
  double period_s = 0.0;
  double begin_s = 0.0;
  double drive_s = 0.0;
  double end_s = 0.0;
  double work_s = 0.0;    // estimate_matrix, or the query batch
  double answer_s = 0.0;  // end_period + work_s: last vehicle to answers
  double reports_s = 0.0;
  double archive_s = 0.0;
  double provider_s = 0.0;
  vcps::IngestStats ingest;
  core::DecodeStats decode;
  std::size_t reports_quarantined = 0;
  // Registry state around the period, taken only while tracing.
  obs::Snapshot registry_before;
  obs::Snapshot registry_after;
  std::vector<Query> queries;
  std::vector<core::EstimateInterval> answers;  // one per query
  std::vector<bool> answered;
  std::vector<double> query_us;
  std::optional<core::OdMatrix> matrix;
  vcps::PeriodArchive archive;
  std::string archive_bytes;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  void op(bool ok) { ops(1, ok ? 0 : 1); }
  void ops(std::uint64_t count, std::uint64_t failures) {
    attempted += count;
    failed += failures;
  }
  void check(bool ok, const char* what) {
    op(ok);
    if (!ok && mismatches++ < 8) {
      std::fprintf(stderr, "period_bench: check failed: %s\n", what);
    }
  }
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::uint64_t seed, Setup setup)
      : spec_(spec),
        seed_(seed),
        setup_(std::move(setup)),
        provider_(setup_.trips, spec.rsus, log_),
        bulk_(provider_.bulk()) {}

  SpanLog& log() { return log_; }
  vcps::VcpsSimulation& sim() { return *setup_.sim; }

  PeriodResult run_period(unsigned ingest_workers) {
    vcps::VcpsSimulation& sim = *setup_.sim;
    PeriodResult r;
    if (spec_.queries_per_period > 0) r.queries = draw_queries();
    if (log_.enabled()) r.registry_before = obs::MetricsRegistry::global().snapshot();

    Timed period(log_, "bench.period");
    {
      Timed t(log_, "vcps.begin_period", period.id());
      sim.begin_period();
      r.begin_s = t.finish();
    }
    {
      Timed t(log_, "vcps.drive_vehicles", period.id());
      provider_.set_parent(t.id());
      r.ingest = sim.drive_vehicles(spec_.vehicles, bulk_, ingest_workers);
      r.drive_s = t.finish();
    }
    {
      Timed t(log_, "vcps.end_period", period.id());
      sim.end_period();
      r.end_s = t.finish();
    }
    const vcps::CentralServer& server = sim.server();
    if (spec_.queries_per_period == 0) {
      Timed t(log_, "vcps.estimate_matrix", period.id());
      r.matrix.emplace(server.estimate_matrix());
      r.work_s = t.finish();
    } else {
      Timed t(log_, "vcps.estimate_with_interval_batch", period.id());
      r.answers.resize(r.queries.size());
      r.answered.assign(r.queries.size(), false);
      r.query_us.reserve(r.queries.size());
      for (std::size_t i = 0; i < r.queries.size(); ++i) {
        const obs::Stopwatch watch;
        try {
          r.answers[i] = server.estimate_with_interval(
              sim.rsu(r.queries[i].a).id(), sim.rsu(r.queries[i].b).id());
          r.answered[i] = true;
        } catch (const std::exception&) {
          // Counted as a failed query below.
        }
        r.query_us.push_back(watch.seconds() * 1e6);
      }
      r.work_s = t.finish();
    }
    {
      Timed t(log_, "vcps.make_report", period.id());
      r.archive.period = sim.current_period();
      r.archive.reports.reserve(sim.rsu_count());
      for (std::size_t i = 0; i < sim.rsu_count(); ++i) {
        r.archive.reports.push_back(sim.rsu(i).make_report(r.archive.period));
      }
      r.reports_s = t.finish();
    }
    {
      Timed t(log_, "vcps.write_archive", period.id());
      std::ostringstream out;
      vcps::write_archive(out, r.archive);
      r.archive_bytes = std::move(out).str();
      r.archive_s = t.finish();
    }
    r.period_s = period.finish();
    if (log_.enabled()) r.registry_after = obs::MetricsRegistry::global().snapshot();
    r.answer_s = r.end_s + r.work_s;
    r.provider_s = provider_.take_seconds();
    r.decode = server.stats().decode;
    r.reports_quarantined = server.stats().reports_quarantined;
    return r;
  }

  // Checks every output of the period against the oracles (outside the
  // timed period) and pools its accuracy against the ground truth.
  void check_period(const PeriodResult& r, Tally& tally) {
    const vcps::VcpsSimulation& sim = *setup_.sim;
    const std::vector<core::RsuState> states = rebuild_states(r.archive);
    const core::IntervalEstimator oracle(sim.scheme().s(), kIntervalZ);

    // Reports: one op each, failed when the server quarantined it.
    tally.ops(r.archive.reports.size(), r.reports_quarantined);
    if (r.matrix) {
      const core::OdMatrix& matrix = *r.matrix;
      // Every stored report is in the matrix, in RSU order.
      tally.check(r.reports_quarantined == 0 &&
                      matrix.rsu_count() == states.size(),
                  "matrix covers every RSU");
      if (matrix.rsu_count() == states.size()) {
        const auto check_cell = [&](std::uint32_t a, std::uint32_t b) {
          tally.check(same(matrix.at(a, b), oracle.estimate(states[a], states[b])),
                      "matrix cell equals the per-pair oracle");
        };
        if (spec_.checked_cells == 0) {
          for (std::uint32_t a = 0; a < states.size(); ++a) {
            for (std::uint32_t b = a + 1; b < states.size(); ++b) {
              check_cell(a, b);
            }
          }
        } else {
          common::Xoshiro256ss rng(common::mix64(seed_ ^ 0xC311 ^ r.archive.period));
          for (std::size_t i = 0; i < spec_.checked_cells; ++i) {
            const Query q = draw_pair([&] {
              return static_cast<std::uint32_t>(rng.uniform(states.size()));
            });
            check_cell(std::min(q.a, q.b), std::max(q.a, q.b));
          }
        }
        for (const TruthPair& p : setup_.floor_pairs) {
          pool_accuracy(matrix.at(p.a, p.b), p.volume);
        }
      }
    }
    for (std::size_t i = 0; i < r.queries.size(); ++i) {
      const Query q = r.queries[i];
      tally.op(r.answered[i]);
      if (!r.answered[i]) continue;
      tally.check(same(r.answers[i], oracle.estimate(states[q.a], states[q.b])),
                  "query equals the per-pair oracle");
      const auto truth =
          static_cast<double>(setup_.workload->pair_volume(q.a, q.b));
      if (truth >= static_cast<double>(kTruthFloor)) {
        pool_accuracy(r.answers[i], truth);
      }
    }

    // The archive reads back to the same reports, byte for byte.
    bool round_trip = false;
    try {
      std::istringstream in(r.archive_bytes);
      const vcps::PeriodArchive back = vcps::read_archive(in);
      round_trip = back.period == r.archive.period &&
                   back.reports.size() == r.archive.reports.size() &&
                   std::equal(back.reports.begin(), back.reports.end(),
                              r.archive.reports.begin(), same_report);
    } catch (const std::exception&) {
    }
    tally.check(round_trip, "read_archive(write_archive(a)) == a");

    if (sim.channel().lossless()) {
      std::uint64_t counters = 0;
      for (const vcps::RsuReport& report : r.archive.reports) {
        counters += report.counter;
      }
      tally.check(counters == r.ingest.exchanges,
                  "RSU counters sum to the ingest exchanges");
    }
  }

  // Times the server's per-query work split into its two halves on a
  // sample of the period's pairs: rebuilding both states from their
  // reports, and the interval estimate on the rebuilt states.
  void time_core(const PeriodResult& r, std::vector<double>& rebuild_us,
                 std::vector<double>& estimate_us) {
    std::vector<Query> pairs(r.queries.begin(),
                             r.queries.begin() +
                                 static_cast<std::ptrdiff_t>(std::min(
                                     r.queries.size(), kCoreSamplePairs)));
    common::Xoshiro256ss rng(common::mix64(seed_ ^ 0xC02E ^ r.archive.period));
    while (pairs.size() < kCoreSamplePairs) pairs.push_back(draw_query(rng));
    const core::IntervalEstimator estimator(setup_.sim->scheme().s(),
                                            kIntervalZ);
    for (const Query q : pairs) {
      std::optional<core::RsuState> x, y;
      {
        Timed t(log_, "core.state_rebuild");
        x.emplace(rebuild(r.archive.reports[q.a]));
        y.emplace(rebuild(r.archive.reports[q.b]));
        rebuild_us.push_back(t.finish() * 1e6);
      }
      Timed t(log_, "core.interval_estimate");
      estimator.estimate(*x, *y);
      estimate_us.push_back(t.finish() * 1e6);
    }
  }

  double rel_err_p50() const { return median(rel_err_); }
  double coverage_gap() const {
    return std::fabs(static_cast<double>(covered_) /
                         static_cast<double>(std::max<std::size_t>(
                             1, rel_err_.size())) -
                     0.95);
  }
  std::size_t accuracy_pairs() const { return rel_err_.size(); }

 private:
  static core::RsuState rebuild(const vcps::RsuReport& report) {
    return core::RsuState::from_report(
        report.counter,
        common::BitArray::from_bytes(report.array_size, report.bits));
  }

  static std::vector<core::RsuState> rebuild_states(
      const vcps::PeriodArchive& archive) {
    std::vector<core::RsuState> states;
    states.reserve(archive.reports.size());
    for (const vcps::RsuReport& report : archive.reports) {
      states.push_back(rebuild(report));
    }
    return states;
  }

  static bool same(const core::EstimateInterval& x,
                   const core::EstimateInterval& y) {
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(x.n_c_hat) == bits(y.n_c_hat) &&
           bits(x.stddev) == bits(y.stddev) && bits(x.lower) == bits(y.lower) &&
           bits(x.upper) == bits(y.upper) &&
           bits(x.floor_stddev) == bits(y.floor_stddev) &&
           x.degraded == y.degraded;
  }

  static bool same_report(const vcps::RsuReport& x,
                          const vcps::RsuReport& y) {
    return x.rsu == y.rsu && x.period == y.period && x.counter == y.counter &&
           x.array_size == y.array_size && x.bits == y.bits;
  }

  template <typename Draw>
  static Query draw_pair(Draw draw) {
    const std::uint32_t a = draw();
    std::uint32_t b = draw();
    while (b == a) b = draw();
    return Query{a, b};
  }

  // Endpoints drawn in proportion to point volume, distinct.
  Query draw_query(common::Xoshiro256ss& rng) const {
    const std::vector<double>& cdf = setup_.query_cdf;
    return draw_pair([&] {
      const double u = rng.uniform_double() * cdf.back();
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      return static_cast<std::uint32_t>(std::min(rank, cdf.size() - 1));
    });
  }

  std::vector<Query> draw_queries() {
    common::Xoshiro256ss rng(
        common::mix64(seed_ ^ 0x9E3779B9u ^ (setup_.sim->current_period() + 1)));
    std::vector<Query> queries;
    queries.reserve(spec_.queries_per_period);
    for (std::size_t i = 0; i < spec_.queries_per_period; ++i) {
      queries.push_back(draw_query(rng));
    }
    return queries;
  }

  void pool_accuracy(const core::EstimateInterval& estimate, double truth) {
    rel_err_.push_back(std::fabs(estimate.n_c_hat - truth) / truth);
    if (estimate.lower <= truth && truth <= estimate.upper) ++covered_;
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  SpanLog log_;
  Setup setup_;
  Provider provider_;
  vcps::BulkItineraryProvider bulk_;
  std::vector<double> rel_err_;
  std::size_t covered_ = 0;
};

// ---------------------------------------------------------------------
// Host metadata

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Host {
  unsigned nproc;
  std::string cpu;
  std::string isa;
  std::string compiler;
  std::string flags;
  std::string build_type;
  unsigned workers;
};

Host describe_host(unsigned workers) {
  return Host{std::max(1u, std::thread::hardware_concurrency()),
              cpu_model(),
              common::kernels::isa_name(common::kernels::active().isa),
              PERFBENCH_COMPILER,
              PERFBENCH_CXX_FLAGS,
              PERFBENCH_BUILD_TYPE,
              workers};
}

std::string host_json(const Host& h) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{\"nproc\": %u, \"workers\": %u, ", h.nproc,
                h.workers);
  return std::string(buf) + "\"cpu\": \"" + json_escaped(h.cpu) +
         "\", \"isa\": \"" + json_escaped(h.isa) + "\", \"compiler\": \"" +
         json_escaped(h.compiler) + "\", \"flags\": \"" + json_escaped(h.flags) +
         "\", \"build_type\": \"" + json_escaped(h.build_type) + "\"}";
}

// ---------------------------------------------------------------------
// Chrome trace: the library's flight recorder (pid 1) and the benchmark's
// spans around each library call (pid 2), in one file.

bool write_trace(const std::string& path, const SpanLog& log,
                 const Host& host) {
  std::string out = "{\"otherData\": {\"host\": " + host_json(host) +
                    "},\n\"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  const auto event = [&](const char* name, unsigned pid, std::uint64_t tid,
                         std::uint64_t start_ns, std::uint64_t dur_ns,
                         const std::string& args) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, "
                  "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f",
                  first ? "" : ",\n", name, pid,
                  static_cast<unsigned long long>(tid),
                  static_cast<double>(start_ns) / 1e3,
                  static_cast<double>(dur_ns) / 1e3);
    out += buf;
    out += args.empty() ? "}" : ", \"args\": " + args + "}";
    first = false;
  };
  for (const obs::trace::ThreadTrace& thread : obs::trace::drain()) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %llu, \"args\": {\"name\": \"",
                  first ? "" : ",\n",
                  static_cast<unsigned long long>(thread.tid));
    out += buf;
    out += json_escaped(thread.thread_name) + "\"}}";
    first = false;
    for (const obs::trace::TraceEvent& e : thread.events) {
      event(e.name, 1, thread.tid, e.start_ns, e.duration_ns, "");
    }
  }
  const std::vector<SpanLog::Record> records = log.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanLog::Record& s = records[i];
    std::snprintf(buf, sizeof buf, "{\"id\": %zu, \"parent\": %lld}", i,
                  s.parent == SpanLog::kNoParent
                      ? -1LL
                      : static_cast<long long>(s.parent));
    event(s.name, 2, s.thread, s.start_ns, s.end_ns - s.start_ns, buf);
  }
  out += "\n]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && ok;
}

struct SpanTotals {
  // Span time minus the time of its direct children on the same thread,
  // summed by layer (the span name's prefix before the first '.').
  std::map<std::string, double> self_seconds;
  // Per period span: its children's time over its own.
  std::vector<double> tiling;
};

SpanTotals span_totals(const std::vector<SpanLog::Record>& records) {
  const auto duration = [](const SpanLog::Record& s) {
    return static_cast<double>(s.end_ns - s.start_ns);
  };
  std::vector<double> children(records.size(), 0.0);
  for (const SpanLog::Record& s : records) {
    if (s.parent != SpanLog::kNoParent && records[s.parent].thread == s.thread) {
      children[s.parent] += duration(s);
    }
  }
  SpanTotals totals;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string_view name = records[i].name;
    totals.self_seconds[std::string(name.substr(0, name.find('.')))] +=
        (duration(records[i]) - children[i]) * 1e-9;
    if (name == "bench.period") {
      totals.tiling.push_back(children[i] / duration(records[i]));
    }
  }
  return totals;
}

std::optional<double> span_delta(const PeriodResult& r, std::string_view name) {
  return delta(r.registry_before, r.registry_after, name, span_seconds);
}

std::optional<double> count_delta(const PeriodResult& r, std::string_view name) {
  return delta(r.registry_before, r.registry_after, name, counter_value);
}

// Decode-layer metrics of one estimate_matrix call.
void add_decode(Series& layer, const PeriodResult& r) {
  const auto span = [&](std::string_view name) { return span_delta(r, name); };
  const auto count = [&](std::string_view name) { return count_delta(r, name); };
  const core::DecodeStats& d = r.decode;
  const auto k = static_cast<double>(r.matrix->rsu_count());
  layer.add("vcps.estimate_matrix_s", "s", r.work_s);
  layer.add("vcps.estimate_matrix_non_decode_s", "s", r.work_s - d.wall_seconds);
  layer.add("core.decode_s", "s", d.wall_seconds);
  layer.add("core.decode.pairs_per_s", "1/s", d.pairs_per_second());
  layer.add("core.decode.words_scanned", "count",
            static_cast<double>(d.words_scanned));
  layer.add("core.decode.scan_mib_per_s", "MiB/s", d.mib_per_second());
  layer.add("core.decode.survivor_ratio", "ratio",
            static_cast<double>(d.pairs_decoded) / (k * (k - 1.0) / 2.0));
  layer.add("core.decode.prune_s", "s", span("decode/prune"));
  layer.add("core.decode.tile_sweep_s", "s", span("decode/tile_sweep"));
  layer.add("core.decode.estimate_s", "s", span("decode/estimate"));
  layer.add("obs.health.pairs_assessed", "count", count("health/pairs_assessed"));
  layer.add("obs.health.pairs_degraded", "count", count("health/pairs_degraded"));
}

// ---------------------------------------------------------------------
// Output

struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void put(const std::string& name, double value, const std::string& unit,
           const char* note = "") {
    std::printf("metric %-40s %.10g %s%s%s\n", name.c_str(), value,
                unit.c_str(), *note ? "  # " : "", note);
    metrics.push_back({name, {value, unit}});
  }
  void absent(const std::string& name, const char* why) {
    std::printf("metric %-40s absent  # %s\n", name.c_str(), why);
  }

  void put_median(const Series& series, const std::string& name,
                  const char* note = "") {
    const Series::Entry& entry = series.at(name);
    if (entry.absent || entry.values.empty()) {
      absent(name, "not in the obs registry on this path");
    } else {
      put(name, median(entry.values), entry.unit, note);
    }
  }

  void print_json(const Tally& tally) const {
    std::string out = "{\"correct\": ";
    out += tally.mismatches == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.12g", metrics[i].second.first);
      out += (i == 0 ? "\"" : ", \"") + metrics[i].first +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             metrics[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
        bool traced, const std::string& trace_path) {
  const unsigned workers = std::min(4u, common::default_worker_count());
  const Host host = describe_host(workers);
  std::printf("host nproc %u  cpu %s  isa %s  workers %u\n", host.nproc,
              host.cpu.c_str(), host.isa.c_str(), host.workers);
  std::printf("build %s  compiler %s  flags %s\n", host.build_type.c_str(),
              host.compiler.c_str(), host.flags.c_str());
  std::printf(
      "workload %s  rsus %zu  vehicles/period %llu  loss %.2f/%.2f  "
      "validation %s  %s  seed %llu\n",
      spec.name, spec.rsus, static_cast<unsigned long long>(spec.vehicles),
      spec.query_loss, spec.reply_loss, spec.validation ? "on" : "off",
      spec.queries_per_period > 0 ? "queries" : "matrix",
      static_cast<unsigned long long>(seed));

  // Set-up: workload, ground truth, and the system, several times for a
  // steady set-up figure (each discarded before the next is built).
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < (traced ? 1 : kSetupRepeats); ++i) {
    bench.reset();
    const obs::Stopwatch watch;
    Setup setup = make_setup(spec, seed, workers);
    setup_s.push_back(watch.seconds());
    bench = std::make_unique<Bench>(spec, seed, std::move(setup));
  }
  Output output;
  Tally tally;
  // One checked period before any timing: the worker pool starts, the
  // allocator and page cache warm up, and the arrays take their sizes.
  bench->check_period(bench->run_period(workers), tally);

  // Runs checked periods until `budget` seconds (checks included) have
  // passed and at least `min_periods` ran; returns how many ran.
  const auto run_periods = [&](double budget, std::size_t min_periods,
                               unsigned ingest_workers,
                               const std::function<void(PeriodResult&)>& each) {
    const obs::Stopwatch watch;
    std::size_t count = 0;
    while (count < min_periods || watch.seconds() < budget) {
      PeriodResult r = bench->run_period(ingest_workers);
      bench->check_period(r, tally);
      each(r);
      ++count;
    }
    return count;
  };

  std::vector<double> period_s, answer_s, query_us, drive_s;
  Series stages;
  const auto collect = [&](PeriodResult& r) {
    period_s.push_back(r.period_s);
    answer_s.push_back(r.answer_s);
    drive_s.push_back(r.drive_s);
    query_us.insert(query_us.end(), r.query_us.begin(), r.query_us.end());
    stages.add("stage.begin_period_s", "s", r.begin_s);
    stages.add("stage.drive_vehicles_s", "s", r.drive_s);
    stages.add("stage.end_period_s", "s", r.end_s);
    stages.add(spec.queries_per_period > 0 ? "stage.queries_s"
                                           : "stage.estimate_matrix_s",
               "s", r.work_s);
    stages.add("stage.make_report_s", "s", r.reports_s);
    stages.add("stage.write_archive_s", "s", r.archive_s);
  };

  const double untraced_budget = traced ? 0.4 * seconds : seconds;
  const std::size_t periods =
      run_periods(untraced_budget, kMinPeriods, workers, collect);
  for (const std::string& name : stages.names()) {
    output.put_median(stages, name, "period stage, median");
  }

  if (!traced) {
    output.put("period_s_p50", median(period_s), "s");
    if (periods >= 100) {
      output.put("period_s_p90", quantile(period_s, 0.9), "s");
    } else {
      output.absent("period_s_p90",
                    "fewer than 100 periods leave < 10 beyond p90");
    }
    std::printf("periods %zu\n", periods);
    if (spec.queries_per_period == 0) {
      output.put("matrix_s_p50", median(answer_s), "s",
                 "end_period + estimate_matrix");
    } else {
      output.put("query_us_p50", median(query_us), "us");
      output.put("query_us_p99", quantile(query_us, 0.99), "us");
      std::printf("queries %zu\n", query_us.size());
    }
    output.put("answer_s_p50", median(answer_s), "s",
               spec.queries_per_period == 0 ? "end_period + estimate_matrix"
                                            : "end_period + query batch");
    output.put("setup_s", median(setup_s), "s");
    output.put("peak_rss_mib", peak_rss_mib(), "MiB");
    output.put("error_rate",
               static_cast<double>(tally.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
               "ratio");
    output.put("rel_err_p50", bench->rel_err_p50(), "ratio");
    output.put("interval_coverage_gap", bench->coverage_gap(), "ratio");
    std::printf("accuracy pairs %zu (true common volume >= %llu)\n",
                bench->accuracy_pairs(),
                static_cast<unsigned long long>(kTruthFloor));
  } else {
    // One period on a single ingest worker: the honest baseline for what
    // the worker pool buys on this host.
    double drive_1_worker = 0.0;
    run_periods(0.0, 1, 1, [&](PeriodResult& r) { drive_1_worker = r.drive_s; });

    obs::trace::set_thread_name("main");
    obs::trace::set_enabled(true);
    bench->log().set_enabled(true);
    Series layer;
    std::vector<double> traced_period_s;
    std::vector<double> rebuild_us, estimate_us;
    Series decode;
    const auto record = [&](PeriodResult& r) {
      traced_period_s.push_back(r.period_s);
      const auto span = [&](std::string_view name) { return span_delta(r, name); };
      const auto count = [&](std::string_view name) { return count_delta(r, name); };
      layer.add("vcps.begin_period_s", "s", r.begin_s);
      layer.add("vcps.drive_vehicles_s", "s", r.drive_s);
      layer.add("vcps.ingest_vehicles_per_s", "1/s",
                static_cast<double>(r.ingest.vehicles) / r.drive_s);
      layer.add("vcps.ingest_exchanges", "count",
                static_cast<double>(r.ingest.exchanges));
      layer.add("vcps.ingest.materialize_cpu_s", "s", span("ingest/materialize"));
      layer.add("vcps.ingest.hash_cpu_s", "s", span("ingest/hash"));
      layer.add("vcps.ingest.channel_cpu_s", "s", span("ingest/channel"));
      layer.add("vcps.ingest.scatter_cpu_s", "s", span("ingest/scatter"));
      layer.add("vcps.ingest.shard_merge_s", "s", span("ingest/shard_merge"));
      layer.add("vcps.end_period_s", "s", r.end_s);
      layer.add("vcps.server_ingest_s", "s", span("server/ingest"));
      layer.add("vcps.reports_quarantined", "count",
                static_cast<double>(r.reports_quarantined));
      layer.add("vcps.make_report_s", "s", r.reports_s);
      layer.add("vcps.archive_write_s", "s", r.archive_s);
      layer.add("vcps.archive_bytes", "bytes",
                static_cast<double>(r.archive_bytes.size()));
      layer.add("vcps.archive_mib_per_s", "MiB/s",
                static_cast<double>(r.archive_bytes.size()) / 1048576.0 /
                    r.archive_s);
      if (r.matrix) add_decode(decode, r);
      layer.add("common.pool.dispatches", "count", count("pool/dispatches"));
      layer.add("common.pool.queue_wait_s", "s", span("pool/queue_wait"));
      const std::optional<double> task = span("pool/task");
      const std::optional<double> region = span("pool/region");
      layer.add("common.pool.busy_ratio", "ratio",
                task && region && *region > 0.0
                    ? std::optional<double>(*task / (workers * *region))
                    : std::nullopt);
      layer.add("traffic.provider_s", "s", r.provider_s);
      layer.add("traffic.provider_share", "ratio",
                r.provider_s / (r.drive_s * r.ingest.workers));
      bench->time_core(r, rebuild_us, estimate_us);
    };
    const std::size_t traced_periods =
        run_periods(seconds - untraced_budget, kMinPeriods, workers, record);

    if (spec.queries_per_period > 0) {
      // This workload decodes no matrix. One decode of the last period's
      // stored reports, after the timed periods, gives its decode layer.
      PeriodResult probe;
      probe.registry_before = obs::MetricsRegistry::global().snapshot();
      {
        Timed t(bench->log(), "vcps.estimate_matrix");
        probe.matrix.emplace(bench->sim().server().estimate_matrix());
        probe.work_s = t.finish();
      }
      probe.registry_after = obs::MetricsRegistry::global().snapshot();
      probe.decode = bench->sim().server().stats().decode;
      add_decode(decode, probe);
    }

    std::printf("traced periods %zu (untraced %zu)\n", traced_periods, periods);
    const double k = static_cast<double>(spec.rsus);
    std::printf("core.decode.survivor_ratio base: %.0f pairs\n",
                k * (k - 1.0) / 2.0);
    for (const std::string& name : layer.names()) {
      output.put_median(layer, name, "median per period");
    }
    for (const std::string& name : decode.names()) {
      output.put_median(decode, name,
                        spec.queries_per_period > 0
                            ? "one decode after the timed periods"
                            : "median per period");
    }
    output.put("core.state_rebuild_us", median(rebuild_us), "us",
               "both states of one query pair");
    output.put("core.interval_estimate_us", median(estimate_us), "us");
    output.put("obs.trace_overhead_ratio",
               median(traced_period_s) / median(period_s), "ratio",
               "traced / untraced period_s_p50");
    output.put("vcps.ingest_speedup_vs_1_worker",
               drive_1_worker / median(drive_s), "ratio");
    const SpanTotals spans = span_totals(bench->log().records());
    for (const auto& [name, self] : spans.self_seconds) {
      output.put(name + ".self_s", self / static_cast<double>(traced_periods),
                 "s", "self time per traced period");
    }
    output.put("bench.tiling_ratio", median(spans.tiling), "ratio",
               "child spans / period span, median per period");
    const auto [lowest, highest] =
        std::minmax_element(spans.tiling.begin(), spans.tiling.end());
    tally.check(*lowest >= 0.95 && *highest <= 1.05,
                "child spans tile every period within 5%");
    obs::trace::set_enabled(false);
    if (!trace_path.empty()) {
      if (write_trace(trace_path, bench->log(), host)) {
        std::printf("wrote chrome trace to %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "period_bench: cannot write %s\n",
                     trace_path.c_str());
      }
    }
  }

  std::printf("checks attempted %llu failed %llu mismatches %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.mismatches));
  output.print_json(tally);
  return tally.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "period_bench: %s is set; the benchmark measures the "
                   "default paths only — unset it\n",
                   name);
      return 2;
    }
  }
  common::ArgParser parser("period_bench",
                           "end-to-end measurement-period benchmark");
  parser.add_string("workload", "dense-k24",
                    "dense-k24, city-k1024, or query-k256-lossy");
  parser.add_int("seed", 1, "workload seed");
  parser.add_double("seconds", 10.0, "measured seconds");
  parser.add_int("trace", 0, "1 = traced run with per-layer metrics");
  parser.add_string("trace-out", "",
                    "Chrome trace JSON path for the traced run");
  try {
    if (!parser.parse(argc, argv)) return 0;
    const std::string name = parser.get_string("workload");
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
      if (name == w.name) spec = &w;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "period_bench: unknown workload '%s'\n",
                   name.c_str());
      return 2;
    }
    return run(*spec, static_cast<std::uint64_t>(parser.get_int("seed")),
               parser.get_double("seconds"), parser.get_int("trace") != 0,
               parser.get_string("trace-out"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "period_bench: error: %s\n", e.what());
    return 1;
  }
}

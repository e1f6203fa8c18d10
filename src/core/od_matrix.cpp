#include "core/od_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/bit_array.h"
#include "common/env_override.h"
#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/require.h"
#include "common/uninit.h"
#include "core/estimator.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace vlm::core {

namespace {

// Decode metrics. The DecodeStats a caller receives is a per-run view
// over exactly these atoms: every field is incremented here and added to
// the registry at the same site, so a registry delta across one decode
// equals the struct (a test pins this). The handles register together on
// the first decode, keeping the exported key set independent of path,
// worker count, and tile size.
struct DecodeMetrics {
  obs::Counter& runs;
  obs::Counter& pairs;
  obs::Counter& words_scanned;
  obs::Counter& pairs_pruned;    // pruned path: pairs the sample skipped
  obs::Counter& pairs_survived;  // pruned path: pairs the exact sweep ran
  obs::Counter& pairs_saturated;  // pairs whose MLE hit the saturation floor
  obs::Gauge& workers;
  obs::Gauge& tile_words;
  obs::Gauge& dram_passes_saved;
  obs::Info& kernel_isa;
  obs::Info& path;
  obs::Histogram& total;       // whole estimate_od_matrix call
  obs::Histogram& prune;       // pruned path: the sampled-union skip stage
  obs::Histogram& tile_sweep;  // blocked path: the batched zero-count sweep
  obs::Histogram& estimate;    // per-RSU table + tally over the counts
};

DecodeMetrics& decode_metrics() {
  static DecodeMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return new DecodeMetrics{r.counter("decode/runs"),
                             r.counter("decode/pairs"),
                             r.counter("decode/words_scanned"),
                             r.counter("decode/pairs_pruned"),
                             r.counter("decode/pairs_survived"),
                             r.counter("decode/pairs_saturated"),
                             r.gauge("decode/workers"),
                             r.gauge("decode/tile_words"),
                             r.gauge("decode/dram_passes_saved"),
                             r.info("kernel/isa"),
                             r.info("decode/path"),
                             obs::phase("decode/total"),
                             obs::phase("decode/prune"),
                             obs::phase("decode/tile_sweep"),
                             obs::phase("decode/estimate")};
  }();
  return *metrics;
}

const char* mode_name(DecodeMode mode) {
  return mode == DecodeMode::kPruned ? "pruned" : "blocked";
}

// VLM_DECODE=blocked|pruned overrides the caller's mode, exactly like
// VLM_KERNELS overrides ISA selection: parsed once, warn-and-keep on an
// unrecognized value so a stale export degrades loudly instead of
// crashing a fleet.
DecodeMode apply_env_override(DecodeMode mode) {
  static constexpr common::EnvEnumChoice kChoices[] = {
      {"blocked", static_cast<int>(DecodeMode::kBlocked)},
      {"pruned", static_cast<int>(DecodeMode::kPruned)}};
  static const int parsed = common::parse_env_enum("VLM_DECODE", kChoices, -1);
  return parsed < 0 ? mode : static_cast<DecodeMode>(parsed);
}

// Sampled-union skip rule for one pair. Returns true when the pair can
// be skipped: even an upper confidence bound on the OR zero fraction —
// taken over a strided sample of the larger array — implies an overlap
// estimate at or below min_volume. Every precondition failure (saturated
// arrays, sub-word sizes, m_y <= s) returns false, i.e. keeps the pair
// for the exact sweep, so the rule only ever errs toward measuring.
bool prune_pair(const RsuState& first, const RsuState& second,
                const PairEstimator& point_estimator, const PruneOptions& prune,
                const common::kernels::KernelTable& table,
                std::size_t* words_sampled) {
  const bool first_is_small = first.array_size() <= second.array_size();
  const RsuState& small = first_is_small ? first : second;
  const RsuState& large = first_is_small ? second : first;
  const std::size_t m_x = small.array_size();
  const std::size_t m_y = large.array_size();
  // Conservative keeps: anything the closed-form bound below cannot
  // describe goes to the exact sweep (which also owns the error
  // messages for genuinely incompatible sizes).
  if (m_x % common::BitArray::kWordBits != 0 || m_y % m_x != 0) return false;
  if (m_y <= point_estimator.s() || m_y <= 1) return false;
  const std::size_t zeros_small = small.zero_count();
  const std::size_t zeros_large = large.zero_count();
  if (zeros_small == 0 || zeros_large == 0) return false;  // saturated

  const std::span<const std::uint64_t> sw = small.bits().words();
  const std::span<const std::uint64_t> lw = large.bits().words();
  const std::size_t ones_sampled = table.or_popcount_sampled(
      lw.data(), lw.size(), sw.data(), sw.size(), prune.sample_stride);
  const std::size_t n_sampled_words =
      common::kernels::sampled_word_count(lw.size(), prune.sample_stride);
  *words_sampled = n_sampled_words;
  const double n_bits =
      static_cast<double>(n_sampled_words) * common::BitArray::kWordBits;
  const double p_hat =
      static_cast<double>(n_sampled_words * common::BitArray::kWordBits -
                          ones_sampled) /
      n_bits;

  // One-sided upper bound on the true OR zero fraction v_c. The sample
  // is n_bits of N = m_y bits without replacement, so the binomial
  // standard error carries the finite-population correction
  // (1/n − 1/N); the additive z²/n term keeps the bound positive and
  // honest in the p_hat ≈ 0 regime where the normal approximation's se
  // collapses (a Wilson-style widening). See DESIGN.md for the math.
  const double total_bits = static_cast<double>(m_y);
  const double fpc = 1.0 / n_bits - 1.0 / total_bits;
  const double se = std::sqrt(std::max(0.0, p_hat * (1.0 - p_hat) * fpc));
  const double v_c_ub =
      std::min(1.0, p_hat + prune.z_prune * se +
                        prune.z_prune * prune.z_prune / n_bits);
  if (!(v_c_ub > 0.0)) return false;

  // Eq. 5 with the bounded v_c: monotone increasing in v_c (the
  // denominator is positive), so an upper bound on v_c is an upper
  // bound on the overlap estimate.
  const double v_x =
      static_cast<double>(zeros_small) / static_cast<double>(m_x);
  const double v_y = static_cast<double>(zeros_large) / total_bits;
  const double n_c_ub =
      (std::log(v_c_ub) - std::log(v_x) - std::log(v_y)) /
      point_estimator.log_ratio_denominator(m_y);
  return n_c_ub <= prune.min_volume;
}

}  // namespace

OdMatrix::OdMatrix(std::span<const RsuState> states,
                   const IntervalEstimator& estimator,
                   common::BatchZeroCounts counts)
    : k_(states.size()),
      measured_pairs_(k_ * (k_ - 1) / 2),
      estimator_(estimator),
      counts_(std::move(counts)) {
  const std::uint32_t s = estimator.s();
  // The size-only model terms, once per distinct (smaller, larger)
  // array-size pair — at most ~log²(m) of them — instead of once per
  // pair.
  std::vector<std::size_t> sizes = counts_.bits;
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  size_count_ = sizes.size();
  // Eq. 5 needs s < m_y on every pair. The smallest m_y of any pair is
  // the smallest size when two arrays share it, the next size otherwise
  // (the prune keeps every pair this check rejects).
  const bool smallest_shared =
      std::count(counts_.bits.begin(), counts_.bits.end(), sizes[0]) >= 2;
  (void)PairEstimator(s).log_ratio_denominator(smallest_shared ? sizes[0]
                                                               : sizes[1]);
  factors_.reserve(size_count_ * size_count_);
  for (const std::size_t m_small : sizes) {
    for (const std::size_t m_large : sizes) {
      factors_.emplace_back(s, m_small, m_large);
    }
  }
  rsus_.reserve(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    RsuTerms terms;
    terms.log_v = std::log(
        PairEstimator::zero_fraction(counts_.zeros[i], counts_.bits[i]));
    terms.counter = static_cast<double>(states[i].counter());
    terms.size_rank = static_cast<std::size_t>(
        std::lower_bound(sizes.begin(), sizes.end(), counts_.bits[i]) -
        sizes.begin());
    rsus_.push_back(terms);
  }
}

void OdMatrix::index_survivors(
    std::span<const std::pair<std::uint32_t, std::uint32_t>> survivors) {
  measured_pairs_ = survivors.size();
  const std::size_t total_pairs = k_ * (k_ - 1) / 2;
  if (survivors.size() * 4 >= total_pairs) {
    // Dense fallback: at this density a lookup is index arithmetic
    // instead of a search, for at most 3x the bytes of the CSR form.
    // Move the survivor counts to their triangle slots and flag them.
    common::UninitVector<std::size_t> ones;
    ones.assign(total_pairs, 0);
    measured_.assign(total_pairs, 0);
    for (std::size_t p = 0; p < survivors.size(); ++p) {
      const std::size_t t =
          counts_.slot(survivors[p].first, survivors[p].second);
      ones[t] = counts_.ones_or[p];
      measured_[t] = 1;
    }
    counts_.ones_or = std::move(ones);
    return;
  }
  // CSR over the survivor list (already sorted by (row, col) — the
  // prune stage compacts in pair order). Survivor slot p keeps its count
  // in ones_or[p], so the sweep's pair order is the storage order.
  row_offsets_.assign(k_ + 1, 0);
  cols_.reserve(survivors.size());
  std::uint32_t row = 0;
  for (const auto& [a, b] : survivors) {
    VLM_REQUIRE(a < b && b < k_ && a >= row,
                "survivor list must be sorted upper-triangle pairs");
    while (row < a) {
      row_offsets_[++row] = static_cast<std::uint32_t>(cols_.size());
    }
    cols_.push_back(b);
  }
  while (row < k_) {
    row_offsets_[++row] = static_cast<std::uint32_t>(cols_.size());
  }
}

std::pair<std::size_t, std::size_t> OdMatrix::triangle_pair(
    std::size_t t) const {
  std::size_t a = 0;
  while (t >= k_ - 1 - a) {
    t -= k_ - 1 - a;
    ++a;
  }
  return {a, a + 1 + t};
}

std::size_t OdMatrix::row_of(std::size_t p) const {
  // The last row starting at or before p; an empty row shares its start
  // with the next one.
  return static_cast<std::size_t>(std::upper_bound(row_offsets_.begin(),
                                                   row_offsets_.end(), p) -
                                  row_offsets_.begin()) -
         1;
}

std::size_t OdMatrix::slot_of(std::size_t lo, std::size_t hi) const {
  if (sparse()) {
    const auto begin = cols_.begin() + row_offsets_[lo];
    const auto end = cols_.begin() + row_offsets_[lo + 1];
    const auto it =
        std::lower_bound(begin, end, static_cast<std::uint32_t>(hi));
    if (it == end || *it != hi) return kNotMeasured;
    return static_cast<std::size_t>(it - cols_.begin());
  }
  const std::size_t t = counts_.slot(lo, hi);
  return measured_.empty() || measured_[t] != 0 ? t : kNotMeasured;
}

OdMatrix::Cell OdMatrix::derive(std::size_t a, std::size_t b,
                                std::size_t ones) const {
  const auto [small, large] = operands(a, b);
  const std::size_t m_y = counts_.bits[large];
  const std::size_t zeros_or = m_y - ones;
  Cell cell;
  cell.a = a;
  cell.b = b;
  cell.n_c_hat = std::max(
      0.0, PairEstimator::eq5(
               std::log(PairEstimator::zero_fraction(zeros_or, m_y)),
               rsus_[small].log_v, rsus_[large].log_v,
               factors(small, large).L));
  // An array with no zero bit leaves none in the OR either, so the OR's
  // count alone tells whether any of Eq. 5's three fractions hit the
  // floor.
  cell.saturated = zeros_or == 0;
  cell.degraded = IntervalEstimator::degraded(
      cell.n_c_hat, cell.saturated, rsus_[small].counter,
      rsus_[large].counter);
  return cell;
}

EstimateInterval OdMatrix::interval(const Cell& cell) const {
  const auto [small, large] = operands(cell.a, cell.b);
  return estimator_.annotate(cell.n_c_hat, cell.saturated,
                             rsus_[small].counter, rsus_[large].counter,
                             factors(small, large));
}

EstimateInterval OdMatrix::at(std::size_t a, std::size_t b) const {
  VLM_REQUIRE(a < k_ && b < k_ && a != b,
              "OD matrix lookup needs two distinct RSU positions");
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  const std::size_t slot = slot_of(lo, hi);
  // Pruned away: the estimate is zero by construction, and the all-zero
  // interval (n_c_hat = 0, zero-width bounds) is exactly that reading.
  if (slot == kNotMeasured) return EstimateInterval{};
  return interval(derive(lo, hi, counts_.ones_or[slot]));
}

bool OdMatrix::measured(std::size_t a, std::size_t b) const {
  VLM_REQUIRE(a < k_ && b < k_ && a != b,
              "OD matrix lookup needs two distinct RSU positions");
  return slot_of(std::min(a, b), std::max(a, b)) != kNotMeasured;
}

double OdMatrix::total_estimated_common() const {
  double total = 0.0;
  for_each_measured([&](const Cell& cell) { total += cell.n_c_hat; });
  return total;
}

OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z, const DecodeOptions& options,
                            DecodeStats* stats) {
  DecodeMetrics& metrics = decode_metrics();
  obs::Span total_span(metrics.total);
  const std::uint64_t pool_before = common::WorkerPool::instance().dispatch_count();
  const std::size_t k = states.size();
  VLM_REQUIRE(k >= 2, "an OD matrix needs at least two RSUs");
  const IntervalEstimator estimator(s, z);
  const unsigned used =
      options.workers == 0 ? common::default_worker_count() : options.workers;

  const DecodeMode mode = apply_env_override(options.mode);

  // Pruned path, stage 1: per-pair skip decisions over a strided sample
  // of each pair's OR zero fraction. Decisions are computed
  // independently per pair into keep[p] and compacted serially, so the
  // survivor list — and therefore the whole decode — is identical for
  // every worker count. Compaction preserves (a, b) order, which keeps
  // the batch sweep's anchor groups contiguous. Only this path lists
  // the pairs; the blocked path walks the triangle index.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  double prune_seconds = 0.0;
  std::size_t prune_words = 0;
  std::size_t pairs_pruned = 0;
  if (mode == DecodeMode::kPruned) {
    pairs.reserve(k * (k - 1) / 2);
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = a + 1; b < k; ++b) pairs.emplace_back(a, b);
    }
    obs::Span prune_span(metrics.prune);
    const PairEstimator point_estimator(s);
    const common::kernels::KernelTable& table = common::kernels::active();
    std::vector<std::uint8_t> keep(pairs.size(), 0);
    std::vector<std::size_t> sampled(pairs.size(), 0);
    common::parallel_for(pairs.size(), used, [&](std::size_t p) {
      const auto [a, b] = pairs[p];
      keep[p] = prune_pair(states[a], states[b], point_estimator,
                           options.prune, table, &sampled[p])
                    ? 0
                    : 1;
    });
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      prune_words += sampled[p];
      if (keep[p] != 0) pairs[kept++] = pairs[p];
    }
    pairs_pruned = pairs.size() - kept;
    pairs.resize(kept);
    prune_seconds = prune_span.finish();
  }

  // Measure the zero counts with the cache-blocked batch sweep; the
  // matrix derives every cell from them. Because the batch sweep's
  // integer partials are exact for any pair subset, a survivor's counts
  // (and therefore its cell) are bit-identical to the unpruned decode.
  std::vector<const common::BitArray*> arrays;
  arrays.reserve(k);
  for (const RsuState& state : states) arrays.push_back(&state.bits());
  common::BatchDecodeOptions batch_options;
  batch_options.tile_words = options.tile_words;
  batch_options.workers = used;
  common::BatchDecodeStats batch_stats;
  common::BatchZeroCounts counts;
  double sweep_seconds = 0.0;
  {
    obs::Span sweep_span(metrics.tile_sweep);
    counts = mode == DecodeMode::kBlocked
                 ? common::joint_zero_counts_batch(arrays, batch_options,
                                                   &batch_stats)
                 : common::joint_zero_counts_batch(arrays, pairs,
                                                   batch_options, &batch_stats);
    sweep_seconds = sweep_span.finish();
  }

  obs::Span estimate_span(metrics.estimate);
  OdMatrix matrix(states, estimator, std::move(counts));
  if (mode == DecodeMode::kPruned) matrix.index_survivors(pairs);
  const std::size_t pairs_decoded = matrix.measured_pairs();
  // The per-pair accounting, integer sums over the counts: each slice
  // tallies its storage slots locally and stores once, so the totals
  // are the same for every worker count.
  struct SliceTally {
    std::size_t words = 0;
    std::size_t saturated = 0;
  };
  std::vector<SliceTally> tallies(used);
  const std::vector<std::size_t>& bits = matrix.counts_.bits;
  const common::UninitVector<std::size_t>& ones_or = matrix.counts_.ones_or;
  common::parallel_slices(
      matrix.stored_cells(), used,
      [&](unsigned slice, std::size_t begin, std::size_t end) {
        SliceTally tally;
        matrix.for_each_slot(
            begin, end, [&](std::size_t a, std::size_t b, std::size_t slot) {
              const auto [small, large] = matrix.operands(a, b);
              tally.words += common::joint_words_scanned(bits[small],
                                                         bits[large]);
              // Saturated exactly when derive() says so: no OR zero.
              if (ones_or[slot] == bits[large]) ++tally.saturated;
            });
        tallies[slice] = tally;
      });
  const double estimate_seconds = estimate_span.finish();

  // Registry and struct are fed from the same values: DecodeStats is the
  // per-run view of what this call just added to the global counters.
  std::size_t words_scanned = prune_words;
  std::size_t pairs_saturated = 0;
  for (const SliceTally& tally : tallies) {
    words_scanned += tally.words;
    pairs_saturated += tally.saturated;
  }
  metrics.runs.inc();
  metrics.pairs.add(pairs_decoded);
  metrics.words_scanned.add(words_scanned);
  metrics.pairs_pruned.add(pairs_pruned);
  metrics.pairs_survived.add(mode == DecodeMode::kPruned ? pairs.size() : 0);
  metrics.pairs_saturated.add(pairs_saturated);
  metrics.workers.set(static_cast<double>(used));
  metrics.tile_words.set(static_cast<double>(batch_stats.tile_words));
  metrics.dram_passes_saved.set(
      static_cast<double>(batch_stats.dram_passes_saved));
  metrics.kernel_isa.set(common::kernels::active_name());
  metrics.path.set(mode_name(mode));
  const double wall_seconds = total_span.finish();

  if (stats != nullptr) {
    stats->pairs_decoded = pairs_decoded;
    stats->pairs_saturated = pairs_saturated;
    stats->words_scanned = words_scanned;
    stats->workers = used;
    stats->kernel_isa = common::kernels::active_name();
    stats->path = mode_name(mode);
    stats->tile_words = batch_stats.tile_words;
    stats->dram_passes_saved = batch_stats.dram_passes_saved;
    stats->pairs_pruned = pairs_pruned;
    stats->pairs_survived = mode == DecodeMode::kPruned ? pairs.size() : 0;
    stats->sample_stride =
        mode == DecodeMode::kPruned ? options.prune.sample_stride : 0;
    stats->prune_seconds = prune_seconds;
    stats->sweep_seconds = sweep_seconds;
    stats->estimate_seconds = estimate_seconds;
    stats->storage = matrix.sparse() ? "sparse" : "dense";
    const common::WorkerPool& pool = common::WorkerPool::instance();
    stats->pool_lifetime_dispatches = pool.dispatch_count();
    stats->pool_dispatches = stats->pool_lifetime_dispatches - pool_before;
    stats->pool_threads = pool.thread_count();
    stats->wall_seconds = wall_seconds;
  }
  return matrix;
}

OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z, unsigned workers, DecodeStats* stats) {
  DecodeOptions options;
  options.workers = workers;
  return estimate_od_matrix(states, s, z, options, stats);
}

}  // namespace vlm::core

// Full origin-destination matrix estimation over a deployment of K RSUs.
//
// The paper estimates one pair at a time; a transportation study wants
// the whole K×K point-to-point matrix. The decode measures each pair's
// one per-pair quantity, and the matrix derives every cell from it:
//
//   - blocked (the default): the GEMM-style cache-blocked batch decode —
//     the word range is tiled, and each cache-hot tile is combined with
//     every partner before moving on, cutting DRAM traffic from the
//     per-pair kernel's O(K² m_max / 64) words to O(K m_max / 64) per
//     tile sweep. Its output is one 8-byte OR-ones count per pair, the
//     exact integer popcount the per-pair kernel measures.
//   - pruned (opt-in): a cheap strided-sample union estimate per pair
//     first; pairs whose upper-bounded overlap stays at or below
//     PruneOptions::min_volume are skipped, and the exact blocked sweep
//     runs only on the survivors, with the same counts. Skipped pairs
//     read as an all-zero interval. At city-scale K most pairs share no
//     traffic, so this turns the O(K²) sweep into O(K² / stride)
//     sampling plus O(survivors) exact work.
//
// Everything else in a cell depends on one RSU at a time (array size,
// zero count, counter, ln V) or on one size pair (SizeFactors), so the
// matrix keeps a per-RSU table and one SizeFactors per size pair next
// to the counts, and derives a cell when it is read: Eq. 5 for the point
// estimate and the degraded flag, and the variance model only when the
// interval is asked for. Every cell is bit-identical to the per-pair
// IntervalEstimator::estimate for every worker count and tile size
// (tests and a differential fuzz suite assert this), and the matrix
// copies what it reads, so it outlives the states it was decoded from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bit_array.h"
#include "core/interval.h"
#include "core/rsu_state.h"

namespace vlm::core {

// How estimate_od_matrix walks the pair set. The VLM_DECODE environment
// variable (blocked|pruned), when set, overrides whatever the caller
// passes — mirroring VLM_KERNELS, so CI can pin one path process-wide
// without threading options through every layer.
enum class DecodeMode {
  kBlocked,  // cache-blocked batch decode
  kPruned,   // sampled-union prune, then the blocked sweep on survivors
};

// Knobs for the prune stage of DecodeMode::kPruned. The defaults are
// maximally conservative: min_volume = 0 only ever skips pairs whose
// overlap upper bound is non-positive, so a pinned VLM_DECODE=pruned run
// stays estimate-compatible with blocked on every workload; real
// deployments raise min_volume to the smallest flow they care about.
struct PruneOptions {
  // Every sample_stride-th 8-word block of each pair's larger array is
  // fed to the sampled OR+popcount kernel; 1 samples every block. The
  // sampled zero fraction drives the skip rule below.
  std::size_t sample_stride = 16;
  // One-sided confidence multiplier on the sampled OR zero fraction.
  // The pair is kept unless even v_c_hat + z_prune standard errors of
  // zeros implies an overlap at or below min_volume — larger values keep
  // more near-threshold pairs (safer, slower). See DESIGN.md for the
  // bound's derivation.
  double z_prune = 4.0;
  // Volume floor: pairs whose upper-bounded overlap estimate is <=
  // min_volume are skipped. 0 means "only skip what is statistically
  // indistinguishable from zero overlap".
  double min_volume = 0.0;
};

// Observability for one decode (K×K estimation) run.
struct DecodeStats {
  std::size_t pairs_decoded = 0;
  // Pairs whose Eq. 5 MLE degenerated (joint OR array with zero count 0
  // — the estimate is a saturation floor, not a measurement). Health
  // telemetry counts these as `decode/pairs_saturated`.
  std::size_t pairs_saturated = 0;
  // The per-pair kernel's 64-bit words summed over the decoded pairs
  // (JointZeroCounts::words_scanned): per-pair-equivalent work, not the
  // blocked sweep's DRAM traffic.
  std::size_t words_scanned = 0;
  unsigned workers = 1;           // threads the work was spread over
  double wall_seconds = 0.0;
  // ISA the kernel dispatch selected for the sweeps ("scalar", "avx2",
  // "avx512") — a static string, never freed.
  const char* kernel_isa = "scalar";
  // Decode path actually taken ("blocked" or "pruned") after the
  // VLM_DECODE override — a static string, never freed.
  const char* path = "blocked";
  // Anchor-tile size in 64-bit words and the full-array DRAM loads the
  // tiling avoided versus per-pair.
  std::size_t tile_words = 0;
  std::size_t dram_passes_saved = 0;
  // Pruned path only (0 elsewhere): pairs the sampled-union stage
  // skipped vs. kept, the sample stride used, and per-phase wall time.
  // pairs_decoded above counts only the pairs actually estimated, so on
  // the pruned path it equals pairs_survived.
  std::size_t pairs_pruned = 0;
  std::size_t pairs_survived = 0;
  std::size_t sample_stride = 0;
  double prune_seconds = 0.0;
  double sweep_seconds = 0.0;     // blocked + pruned: the exact tile sweep
  // The per-RSU table and size-pair factors, and the tally of
  // words_scanned and pairs_saturated over the counts. Cells are derived
  // when read, so no Eq. 5 or interval math runs here.
  double estimate_seconds = 0.0;
  // Matrix storage the pruned path chose ("dense" or "sparse") — a
  // static string, never freed. Always "dense" for unpruned decodes.
  const char* storage = "dense";
  // Persistent-pool accounting: parallel regions this run dispatched to
  // the shared WorkerPool, the pool's lifetime total after the run (the
  // gap between the two is reuse by earlier phases — no thread was
  // spawned for any of them), and the helper threads it keeps parked.
  std::uint64_t pool_dispatches = 0;
  std::uint64_t pool_lifetime_dispatches = 0;
  unsigned pool_threads = 0;

  double pairs_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(pairs_decoded) / wall_seconds
               : 0.0;
  }
  // words_scanned per wall second: a per-pair-equivalent rate.
  double mib_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(words_scanned) * 8.0 /
                                    (wall_seconds * 1024.0 * 1024.0)
                              : 0.0;
  }
};

// Knobs for estimate_od_matrix. Defaults reproduce the serial blocked
// decode; every combination yields bit-identical estimates.
struct DecodeOptions {
  unsigned workers = 1;  // 1 = serial, 0 = one per hardware core
  DecodeMode mode = DecodeMode::kBlocked;
  std::size_t tile_words = 0;  // blocked path tile size; 0 = auto (L2 budget)
  PruneOptions prune;          // kPruned only; ignored on the blocked path
};

class OdMatrix {
 public:
  std::size_t rsu_count() const { return k_; }

  // Point estimate and interval for the pair, derived on read (Eq. 5
  // and the variance model). Dense matrices answer every pair; a pruned
  // decode's matrix answers skipped pairs with the all-zero interval
  // (their overlap was statistically indistinguishable from zero at the
  // configured threshold).
  EstimateInterval at(std::size_t a, std::size_t b) const;

  // Whether (a, b) was actually measured by the exact sweep — always
  // true for unpruned decodes, false exactly for the pairs the prune
  // stage skipped.
  bool measured(std::size_t a, std::size_t b) const;

  // Cells the exact sweep measured: k(k-1)/2 unless pruned.
  std::size_t measured_pairs() const { return measured_pairs_; }

  // Whether the survivor set is held in CSR storage (pruned decodes
  // below the density threshold) instead of the dense upper triangle.
  bool sparse() const { return !row_offsets_.empty(); }

  // Entries in cell storage (one 8-byte count each): the whole triangle
  // when dense, one per survivor when sparse.
  std::size_t stored_cells() const { return counts_.ones_or.size(); }

  // One measured cell as for_each_measured hands it over: the pair
  // (a < b) and what Eq. 5 alone gives — the point estimate, whether the
  // MLE hit its saturation floor, and IntervalEstimator::degraded.
  struct Cell {
    std::size_t a = 0;
    std::size_t b = 0;
    double n_c_hat = 0.0;
    bool saturated = false;
    bool degraded = false;
  };

  // The cell's interval: runs the variance model. Equals at(cell.a,
  // cell.b) bit for bit.
  EstimateInterval interval(const Cell& cell) const;

  // Calls visit(cell) for every measured pair's cell among storage
  // entries [begin, end), in row-major pair order — O(measured pairs) on
  // sparse storage, no per-cell lookup. Each visit costs Eq. 5 only; a
  // visitor that needs σ calls interval(cell). Disjoint ranges can be
  // walked concurrently.
  template <typename Visit>
  void for_each_measured(std::size_t begin, std::size_t end,
                         Visit&& visit) const {
    for_each_slot(begin, end,
                  [&](std::size_t a, std::size_t b, std::size_t slot) {
                    visit(derive(a, b, counts_.ones_or[slot]));
                  });
  }
  template <typename Visit>
  void for_each_measured(Visit&& visit) const {
    for_each_measured(0, stored_cells(), visit);
  }

  // Sum of all pairwise point estimates (an aggregate mobility index),
  // summed in storage order. Skipped pairs contribute nothing.
  double total_estimated_common() const;

 private:
  friend OdMatrix estimate_od_matrix(std::span<const RsuState>, std::uint32_t,
                                     double, const DecodeOptions&,
                                     DecodeStats*);

  // The per-RSU inputs of a cell besides the counts' sizes and zeros.
  struct RsuTerms {
    double log_v = 0.0;    // ln V of the array (Eq. 5's per-array log)
    double counter = 0.0;  // n, as the variance model reads it
    std::size_t size_rank = 0;  // rank of the array size among the sizes
  };

  // Takes the sweep's counts (all-pairs slots) and builds the per-RSU
  // table and the size-pair factors from `states`.
  OdMatrix(std::span<const RsuState> states,
           const IntervalEstimator& estimator, common::BatchZeroCounts counts);

  // Re-indexes the counts of a pair-list sweep over `survivors` (sorted
  // ascending by (row, col), row < col; survivor p in slot p): CSR over
  // the survivors when they are sparse enough to pay for the index, the
  // dense triangle plus per-cell measured flags otherwise.
  void index_survivors(
      std::span<const std::pair<std::uint32_t, std::uint32_t>> survivors);

  // The operand order of pair (a, b), a < b: the smaller array first,
  // the lower position on size ties (as common::joint_zero_counts).
  std::pair<std::size_t, std::size_t> operands(std::size_t a,
                                               std::size_t b) const {
    return counts_.bits[a] <= counts_.bits[b] ? std::pair{a, b}
                                              : std::pair{b, a};
  }
  const SizeFactors& factors(std::size_t small, std::size_t large) const {
    return factors_[rsus_[small].size_rank * size_count_ +
                    rsus_[large].size_rank];
  }
  // Eq. 5 for pair (a, b), a < b, whose OR has `ones` one bits.
  Cell derive(std::size_t a, std::size_t b, std::size_t ones) const;

  // Calls fn(a, b, slot) for every measured storage slot in [begin, end),
  // in storage (row-major pair) order.
  template <typename Fn>
  void for_each_slot(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end) return;
    if (sparse()) {
      std::size_t a = row_of(begin);
      for (std::size_t p = begin; p < end; ++p) {
        while (p >= row_offsets_[a + 1]) ++a;
        fn(a, std::size_t{cols_[p]}, p);
      }
      return;
    }
    auto [a, b] = triangle_pair(begin);
    for (std::size_t t = begin; t < end; ++t) {
      if (measured_.empty() || measured_[t] != 0) fn(a, b, t);
      if (++b == k_) b = ++a + 1;
    }
  }

  // The pair (a, b), a < b, at row-major triangle index t: the inverse
  // of BatchZeroCounts::slot. O(K), so a walk converts only its first
  // index.
  std::pair<std::size_t, std::size_t> triangle_pair(std::size_t t) const;
  // CSR row holding survivor slot p.
  std::size_t row_of(std::size_t p) const;
  // Storage slot of (lo, hi), or kNotMeasured when the prune skipped it.
  static constexpr auto kNotMeasured = static_cast<std::size_t>(-1);
  std::size_t slot_of(std::size_t lo, std::size_t hi) const;

  std::size_t k_;
  std::size_t measured_pairs_;
  IntervalEstimator estimator_;
  // Per-array sizes and zero counts, and one OR-ones count per storage
  // slot: dense, the full upper triangle in row-major order; sparse, one
  // per survivor in survivor order.
  common::BatchZeroCounts counts_;
  std::vector<RsuTerms> rsus_;
  // One SizeFactors per (smaller, larger) distinct array size, at
  // rank_small * size_count_ + rank_large.
  std::size_t size_count_ = 0;
  std::vector<SizeFactors> factors_;
  // CSR index (sparse storage only): row r's survivor columns are
  // cols_[row_offsets_[r] .. row_offsets_[r + 1]).
  std::vector<std::uint32_t> row_offsets_;
  std::vector<std::uint32_t> cols_;
  // Dense pruned fallback only: 1 where the cell was measured.
  std::vector<std::uint8_t> measured_;
};

// Estimates every unordered pair among `states`. Requires >= 2 RSUs.
// Symmetric: at(a, b) == at(b, a); the diagonal is invalid to query.
// The output is bit-identical for every DecodeOptions combination; only
// throughput changes. When `stats` is non-null it receives the run's
// decode counters.
OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z, const DecodeOptions& options,
                            DecodeStats* stats = nullptr);

// Convenience overload: `workers` spreads the work over that many
// threads (1 = serial, 0 = one per hardware core) with every other knob
// at its default.
OdMatrix estimate_od_matrix(std::span<const RsuState> states, std::uint32_t s,
                            double z = 1.96, unsigned workers = 1,
                            DecodeStats* stats = nullptr);

}  // namespace vlm::core

// Full origin-destination matrix estimation over a deployment of K RSUs.
//
// The paper estimates one pair at a time; a transportation study wants
// the whole K×K point-to-point matrix. Two decode paths produce it:
//
//   - blocked (the default): the GEMM-style cache-blocked batch decode —
//     the word range is tiled, and each cache-hot tile is combined with
//     every partner before moving on, cutting DRAM traffic from the
//     per-pair kernel's O(K² m_max / 64) words to O(K m_max / 64) per
//     tile sweep. The arithmetic is the same exact integer popcounts,
//     and the Eq. 5 / interval math reads the same size-only terms (one
//     SizeFactors per distinct size pair), so every cell is
//     bit-identical to the per-pair IntervalEstimator::estimate for
//     every worker count and tile size (tests and a differential fuzz
//     suite assert this). The estimate is a second parallel pass over
//     slices of the row-major triangle; it writes every cell exactly
//     once, so the cells are not zero-filled first.
//   - pruned (opt-in): a cheap strided-sample union estimate per pair
//     first; pairs whose upper-bounded overlap stays at or below
//     PruneOptions::min_volume are skipped, and the exact blocked sweep
//     runs only on the survivors. Survivor estimates are bit-identical
//     to the blocked path (same integer counts, same Eq. 5 float path);
//     skipped pairs read as an all-zero interval. At city-scale K most
//     pairs share no traffic, so this turns the O(K²) sweep into
//     O(K² / stride) sampling plus O(survivors) exact work.
//
// Each pair writes only its own cell, and prune decisions are computed
// independently per pair, so the parallel result is bit-identical to the
// serial one for any worker count on every path (tests assert this on a
// 24-RSU workload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/uninit.h"
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
  double estimate_seconds = 0.0;  // Eq. 5 / interval math
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
  explicit OdMatrix(std::size_t rsu_count);

  std::size_t rsu_count() const { return k_; }

  // Point estimate and interval for the pair. Dense matrices answer
  // every pair; a pruned decode's matrix answers skipped pairs with a
  // shared all-zero interval (their overlap was statistically
  // indistinguishable from zero at the configured threshold).
  const EstimateInterval& at(std::size_t a, std::size_t b) const;

  // Whether (a, b) was actually measured by the exact sweep — always
  // true for unpruned decodes, false exactly for the pairs the prune
  // stage skipped.
  bool measured(std::size_t a, std::size_t b) const;

  // Cells the exact sweep measured: k(k-1)/2 unless pruned.
  std::size_t measured_pairs() const { return measured_pairs_; }

  // Whether the survivor set is held in CSR storage (pruned decodes
  // below the density threshold) instead of the dense upper triangle.
  bool sparse() const { return !row_offsets_.empty(); }

  // Entries in cell storage: the whole triangle when dense, one per
  // survivor when sparse.
  std::size_t stored_cells() const { return cells_.size(); }

  // Calls visit(cell) for every measured pair's cell among storage
  // entries [begin, end), in row-major pair order — O(measured pairs) on
  // sparse storage, no per-cell lookup. Disjoint ranges can be walked
  // concurrently.
  template <typename Visit>
  void for_each_measured(std::size_t begin, std::size_t end,
                         Visit&& visit) const {
    // Sparse storage holds exactly the measured cells; the dense layouts
    // hold the whole triangle, flagged when pruned.
    for (std::size_t i = begin; i < end; ++i) {
      if (measured_.empty() || measured_[i] != 0) visit(cells_[i]);
    }
  }

  // Sum of all pairwise point estimates (an aggregate mobility index).
  // Skipped pairs contribute their pruned-to-zero estimate.
  double total_estimated_common() const;

 private:
  friend OdMatrix estimate_od_matrix(std::span<const RsuState>, std::uint32_t,
                                     double, const DecodeOptions&,
                                     DecodeStats*);
  EstimateInterval& cell(std::size_t a, std::size_t b);

  // Dense storage the blocked decode fills: every cell is written exactly
  // once before anyone reads it, so the cells are left unfilled and each
  // page is first touched by the worker that writes it.
  struct Unfilled {};
  OdMatrix(std::size_t rsu_count, Unfilled);

  // Storage for a pruned decode: CSR over the survivor list (must be
  // sorted ascending by (row, col), row < col) when survivors are sparse
  // enough to pay for the index, the dense triangle plus per-cell
  // measured flags otherwise.
  static OdMatrix for_survivors(
      std::size_t rsu_count,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> survivors);

  std::size_t triangle_index(std::size_t lo, std::size_t hi) const {
    // Row-major upper triangle: offset(lo) = lo*k - lo(lo+1)/2 relative
    // to column lo+1.
    return lo * k_ - lo * (lo + 1) / 2 + (hi - lo - 1);
  }
  // Survivor-slot lookup in CSR storage; npos when (lo, hi) was pruned.
  std::size_t sparse_slot(std::size_t lo, std::size_t hi) const;

  std::size_t k_;
  std::size_t measured_pairs_ = 0;
  // Dense: the full upper triangle, row-major. Sparse: one entry per
  // survivor, in survivor order. Zero-filled except on the blocked path
  // (see Unfilled).
  common::UninitVector<EstimateInterval> cells_;
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

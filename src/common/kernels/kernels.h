// Vectorized bit-kernel layer with runtime ISA dispatch.
//
// The word-level loops that dominate both the decode pipeline
// (joint_zero_counts for Eq. 5, per pair and cache-blocked batch) and the
// parallel ingest engine (batch bit-index hashing, bulk set + recount),
// plus the whole-array OR-merge, are hoisted here behind a per-ISA
// dispatch table: a portable scalar baseline that every build carries,
// plus AVX2 (nibble-LUT popcount) and AVX-512-VPOPCNTDQ variants that
// are compiled only when the toolchain supports the flags and selected
// only when the CPU reports the features. Selection happens once, at
// first use, and can be pinned with VLM_KERNELS=scalar|avx2|avx512 so
// CI and sanitizer runs control exactly which code path they cover.
//
// Every variant computes bit-identical results: the dispatch is a pure
// performance decision, asserted by the differential fuzz suite
// (tests/common/kernels_fuzz_test.cpp) and by bench_kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vlm::common::kernels {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// One implementation of the hot kernels. All pointers are non-null in
// every table this module hands out.
struct KernelTable {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";

  // Total popcount of words[0..n).
  std::size_t (*popcount)(const std::uint64_t* words, std::size_t n);

  // Fused OR + popcount with cyclic indexing of the smaller operand:
  // returns popcount of (large[i] | small[i % n_small]) over
  // i in [0, n_large) without materializing the unfolded array — the
  // word-level form of the paper's Eq. 3 unfolding feeding Eq. 4's OR.
  // n_small may be smaller than, equal to, or larger than n_large; only
  // the first n_large words of a larger `small` are read.
  std::size_t (*or_popcount_cyclic)(const std::uint64_t* large,
                                    std::size_t n_large,
                                    const std::uint64_t* small,
                                    std::size_t n_small);

  // Cache-blocked batch form of or_popcount_cyclic: processes ONE tile
  // [tile_begin, tile_end) of a shared anchor (larger) array against
  // n_partners partner arrays, accumulating the fused OR+popcount of
  // each pair into ones_acc[j] (+=, so callers sweep tiles and let the
  // partials add up). Partner j is indexed cyclically with period
  // partner_words[j] starting at cyclic position tile_begin %
  // partner_words[j] — Eq. 3 unfolding is still never materialized, and
  // mixed per-pair sizes are handled by anchoring the tile on the larger
  // array. The anchor tile is streamed once per partner while it is
  // cache-hot, which is the whole point: the batch caller loads each
  // array tile from DRAM once instead of once per pair.
  //
  // Requires tile_begin < tile_end and partner_words[j] >= 1. Partials
  // are exact integer popcounts, so any tiling of [0, n_anchor) sums to
  // exactly the or_popcount_cyclic result — asserted by the differential
  // fuzz suite for every compiled ISA.
  void (*or_popcount_cyclic_batch)(const std::uint64_t* anchor,
                                   std::size_t tile_begin,
                                   std::size_t tile_end,
                                   const std::uint64_t* const* partners,
                                   const std::size_t* partner_words,
                                   std::size_t n_partners,
                                   std::size_t* ones_acc);

  // In-place dst[i] |= src[i] over [0, n); returns the popcount of the
  // merged result in the same sweep (shard-combining primitive).
  std::size_t (*merge_or)(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n);

  // Bulk ingest: validates every index against bit_count (throws
  // std::invalid_argument before touching the words on violation), sets
  // the bits with plain word writes, then recounts ones over the
  // ceil(bit_count/64) words in one vectorized sweep. Returns the new
  // ones count.
  std::size_t (*set_scatter)(std::uint64_t* words, std::size_t bit_count,
                             const std::size_t* indices,
                             std::size_t n_indices);

  // Batch bit-index encode — the vehicle-side hash of Section IV-B over
  // a whole exchange slice. For each masked key k = masked_keys[i]:
  //     slot   = mix64(k ^ slot_input) % slot_count   (skipped when
  //              slot_count == 1: salts[0] serves every lane)
  //     out[i] = mix64(k ^ salts[slot]) & fold_mask
  // with mix64 the splitmix64 finalizer, bit-for-bit common::mix64. The
  // SIMD variants vectorize the power-of-two slot_count the sizing
  // policy produces (modulo becomes an AND, salts via gather) and defer
  // other counts to the scalar reference, so every variant is exact for
  // every input — asserted by the differential fuzz suite.
  void (*encode_batch)(const std::uint64_t* masked_keys, std::size_t n,
                       std::uint64_t slot_input, const std::uint64_t* salts,
                       std::uint64_t slot_count, std::uint64_t fold_mask,
                       std::size_t* out);

  // Batched Zipf rank selection — the per-draw core of
  // MultiRsuWorkload's itinerary sampling over a whole vehicle block.
  // For each splitmix64 stream position states[i]:
  //     draw   = mix64(states[i]) >> 11                  (53-bit uniform)
  //     out[i] = lower_bound(thresholds, draw)           (first r with
  //              thresholds[r] > draw), computed as a forward scan from
  //              the guide table's bucket entry:
  //                  r = guide[(draw * buckets) >> 53]
  //                  while (thresholds[r] <= draw) ++r
  // Caller contract (what the workload's construction guarantees):
  // thresholds is non-decreasing with a final entry > 2^53 - 1, so the
  // scan always terminates in range; guide has buckets + 1 entries and
  // guide[j] lower-bounds the selected rank of every draw in bucket j;
  // thresholds stay below 2^63 (2^53-scaled values always do), which
  // keeps the SIMD variants' signed 64-bit compares exact. The vector
  // paths defer to the scalar reference when buckets >= 2^32 (their
  // bucket math uses 32x32-bit partial products); every variant is
  // bit-exact for every input — asserted by the differential fuzz suite.
  void (*zipf_rank_batch)(const std::uint64_t* states, std::size_t n,
                          const std::uint64_t* thresholds,
                          const std::uint32_t* guide, std::uint64_t buckets,
                          std::uint32_t* out);

  // Strided-sample fused OR + popcount — the cheap union estimator the
  // pruned decode runs in front of the exact sweep. Partitions the
  // larger array into 8-word blocks and computes the fused OR+popcount
  // (with the same cyclic indexing of the smaller operand as
  // or_popcount_cyclic) over every stride-th block: block indices
  // 0, stride, 2*stride, .... Returns the ones count over the sampled
  // words only; sampled_word_count(n_large, stride) gives how many words
  // that is. Requires stride >= 1; stride == 1 visits every block and
  // equals or_popcount_cyclic exactly — asserted, along with
  // scalar/SIMD bit-identity at every stride, by the differential fuzz
  // suite.
  std::size_t (*or_popcount_sampled)(const std::uint64_t* large,
                                     std::size_t n_large,
                                     const std::uint64_t* small,
                                     std::size_t n_small, std::size_t stride);

  // Run-expanded form of zipf_rank_batch — fuses the continuation-state
  // fill into the rank kernel so callers never materialize the full
  // state array. Run i contributes run_slots[i] consecutive splitmix64
  // stream positions starts[i] + k * gamma for k in [0, run_slots[i]);
  // ranks are written densely to out in run order, exactly as if the
  // caller had expanded all states and made one zipf_rank_batch call.
  // Implementations expand runs into a cache-resident chunk and feed the
  // same per-ISA rank core, so every variant is bit-identical to the
  // expanded call — asserted by the differential fuzz suite.
  void (*zipf_rank_runs)(const std::uint64_t* starts,
                         const std::uint32_t* run_slots, std::size_t n_runs,
                         std::uint64_t gamma, const std::uint64_t* thresholds,
                         const std::uint32_t* guide, std::uint64_t buckets,
                         std::uint32_t* out);
};

// Number of words or_popcount_sampled reads from an n_words array at the
// given stride: 8 per sampled block, with the final block clipped to the
// array end. This is the denominator for any zero/one fraction taken
// over the sampled popcount.
inline std::size_t sampled_word_count(std::size_t n_words,
                                      std::size_t stride) {
  if (n_words == 0) return 0;
  const std::size_t blocks = (n_words + 7) / 8;
  const std::size_t sampled = (blocks + stride - 1) / stride;
  std::size_t words = sampled * 8;
  // The clipped final block is only in the sample when its index lands
  // on the stride grid.
  if ((sampled - 1) * stride == blocks - 1 && n_words % 8 != 0) {
    words -= 8 - n_words % 8;
  }
  return words;
}

// Human-readable ISA name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

// The portable baseline; always present, the reference for every
// differential test.
const KernelTable& scalar_table();

// Whether the variant was compiled into this binary (toolchain had the
// flags and the target is x86-64).
bool compiled(Isa isa);

// Whether the variant is usable here: compiled in AND the CPU reports
// the feature bits. Scalar is always available.
bool available(Isa isa);

// Every available variant, scalar first — what the fuzz suite iterates.
std::vector<Isa> available_isas();

// Table for a specific available ISA; throws std::invalid_argument if
// `available(isa)` is false.
const KernelTable& table_for(Isa isa);

// The table every BitArray operation routes through. Selected once at
// first use: the best available ISA, unless the VLM_KERNELS environment
// variable pins one ("scalar", "avx2", "avx512"; "auto"/empty keep the
// default). Pinning an ISA the host lacks falls back to the best
// available one with a warning on stderr rather than crashing, so a CI
// matrix can export one value across heterogeneous runners.
const KernelTable& active();

// isa_name(active().isa) — for stats lines and bench JSON.
const char* active_name();

namespace detail {
// Variant factories. Each TU returns nullptr when its ISA was not
// compiled in; kernels.cpp combines this with CPUID at selection time.
const KernelTable* avx2_table();
const KernelTable* avx512_table();
}  // namespace detail

}  // namespace vlm::common::kernels

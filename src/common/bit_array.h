// Dense bit array: the storage primitive of both masking schemes.
//
// An RSU's state in the paper is exactly one of these plus a counter. The
// operations the decoding phase needs — zero counting, bitwise OR, and the
// paper's "unfolding" expansion (Section IV-C, Eq. 3) — are all word-level
// and O(m/64).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/uninit.h"

namespace vlm::common {

class BitArray {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitArray() = default;

  // Creates an all-zero array of `bit_count` bits. `bit_count` may be any
  // positive value; the power-of-two restriction the paper imposes is a
  // property of the sizing policy (core/sizing.h), not of the container.
  explicit BitArray(std::size_t bit_count);

  std::size_t size() const { return bit_count_; }
  bool empty() const { return bit_count_ == 0; }

  void set(std::size_t index);
  bool test(std::size_t index) const;

  // Bulk ingest: sets every index in `indices` (duplicates are fine — OR
  // is idempotent). Batches of at least one index per array word use
  // plain word writes plus one vectorized popcount recount; smaller
  // batches — the common case under the sub-slice pipeline schedule —
  // maintain the ones count incrementally so the cost is O(n), never
  // O(m/64) per call.
  void set_bulk(std::span<const std::size_t> indices);

  // Lossy-channel form: sets indices[i] for every i with deliveries[i]
  // > 0 (a lost reply sets nothing; a duplicated one sets its bit once).
  // Always defers the ones count, like a small set_bulk batch. The spans
  // must have equal length.
  void set_bulk(std::span<const std::size_t> indices,
                std::span<const std::uint8_t> deliveries);

  // Clears every bit (start of a new measurement period).
  void reset();

  // O(1) when the count is clean. `set` and `merge_or` keep it exact
  // incrementally; `set_bulk` defers, and the first read afterwards pays
  // one vectorized popcount sweep. Decode paths only ever see clean
  // arrays (merging recounts), so per-array zero counts stay free there.
  std::size_t count_ones() const;
  std::size_t count_zeros() const { return size() - count_ones(); }

  // V_x in the paper: the fraction of '0' bits. Requires a non-empty array.
  double zero_fraction() const;

  // The paper's "unfolding" technique (Eq. 3): returns an array of
  // `target_size` bits with B^u[i] = B[i mod m]. Requires `target_size`
  // to be a positive multiple of size(). Unfolding to size() returns a
  // copy. The zero fraction is invariant under unfolding.
  BitArray unfolded(std::size_t target_size) const;

  // Word-level OR-merge (Eq. 4) of two whole arrays: the union the
  // triple estimator takes, and the raw-kernel bench's merge of its
  // per-worker arrays. `ones_` is recomputed by popcount during the
  // single word sweep, never per bit. Both operands must have equal
  // size. Returns *this.
  BitArray& merge_or(const BitArray& other);

  // Bitwise OR (Eq. 4). Both operands must have equal size.
  BitArray& operator|=(const BitArray& other) { return merge_or(other); }
  friend BitArray operator|(BitArray lhs, const BitArray& rhs) {
    lhs |= rhs;
    return lhs;
  }

  friend bool operator==(const BitArray& a, const BitArray& b) {
    return a.bit_count_ == b.bit_count_ && a.words_ == b.words_;
  }

  // Raw 64-bit words, little-endian bit order within a word; trailing bits
  // past size() are guaranteed zero. Exposed for serialization and tests.
  std::span<const std::uint64_t> words() const { return words_; }

  // Serialization for RSU -> central-server reports: ceil(size()/8)
  // bytes, bit i in byte i/8 at position i%8 (the words' little-endian
  // layout, so little-endian hosts copy the words as they are).
  std::vector<std::uint8_t> to_bytes() const;
  // Rebuilds an array from to_bytes output: on little-endian hosts one
  // word copy that counts the ones as it goes, so the result's count is
  // clean. Throws std::invalid_argument unless `bit_count` is positive,
  // the buffer is exactly ceil(bit_count/8) bytes, and no bit at or past
  // `bit_count` is set.
  static BitArray from_bytes(std::size_t bit_count,
                             std::span<const std::uint8_t> bytes);

 private:
  static std::size_t word_count_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  std::size_t bit_count_ = 0;
  // `ones_` is exact while `ones_stale_` is false; `set_bulk` only
  // writes words and raises the flag, and `count_ones` recounts behind
  // the const read API (hence mutable). Flushing is not safe from
  // concurrent readers — ingest keeps stale arrays worker-private and
  // every cross-thread hand-off (merge, serialization) recounts.
  mutable std::size_t ones_ = 0;
  mutable bool ones_stale_ = false;
  // Zeroed explicitly by the sizing constructor; from_bytes overwrites
  // every word instead of zeroing first.
  UninitVector<std::uint64_t> words_;
};

// Result of the fused decode kernel below. `zeros_or` is the zero count
// of unfold(small) | large, measured at the larger size — exactly the
// three quantities Eq. 5 reads (V_x, V_y, V_c after dividing by size).
struct JointZeroCounts {
  std::size_t size_small = 0;   // smaller array's bit count (m_x)
  std::size_t size_large = 0;   // larger array's bit count (m_y)
  std::size_t zeros_small = 0;  // zero bits of the smaller array
  std::size_t zeros_large = 0;  // zero bits of the larger array
  std::size_t zeros_or = 0;     // zero bits of unfold(small) | large
  std::size_t words_scanned = 0;  // 64-bit words the kernel touched
};

// Fused decode kernel: the three zero counts the pair estimator needs in
// one pass, without ever materializing the unfolded array — the OR is
// formed word by word, indexing the smaller array's words cyclically
// (unfolding is periodic repetition, Eq. 3). Accepts the operands in
// either order. Requires the smaller size to divide the larger, which
// power-of-two sizes (Section IV-A) guarantee; anything else throws with
// a sizing hint. O(m_y / 64) time, O(1) extra space.
JointZeroCounts joint_zero_counts(const BitArray& a, const BitArray& b);

// JointZeroCounts::words_scanned of a pair of the given sizes (smaller
// first): both arrays once for word-aligned sizes; a sub-word smaller
// array takes the materializing fallback, which also writes and then
// counts one larger-sized OR array.
inline std::size_t joint_words_scanned(std::size_t size_small,
                                       std::size_t size_large) {
  constexpr std::size_t kWord = BitArray::kWordBits;
  const std::size_t small_words = (size_small + kWord - 1) / kWord;
  const std::size_t large_words = (size_large + kWord - 1) / kWord;
  return small_words + (size_small % kWord == 0 ? 1 : 3) * large_words;
}

namespace kernels {
struct KernelTable;
}  // namespace kernels

// Options for the cache-blocked batch decode below.
struct BatchDecodeOptions {
  // Anchor-tile size in 64-bit words; 0 picks a power of two sized so
  // that one tile of every array together fits comfortably in L2 (the
  // classic GEMM blocking budget). Any positive value is correct — the
  // tiling never changes the counts, only the cache behavior.
  std::size_t tile_words = 0;
  // Threads the sweep is spread over (0 = one per core, 1 = serial). The
  // (anchor, tile) work list is cut into one contiguous run of equal
  // kernel work per worker; an anchor split by a cut gets one partial
  // per worker, summed in worker order. Integer partials are exact, so
  // the counts are bit-identical for any worker count and tile size.
  unsigned workers = 1;
  // Kernel variant to run the tile sweeps on; nullptr = kernels::active().
  // The differential fuzz suite uses this to pin each compiled ISA.
  const kernels::KernelTable* table = nullptr;
};

// Observability for one joint_zero_counts_batch call.
struct BatchDecodeStats {
  std::size_t tile_words = 0;  // tile size actually used
  std::size_t tiles = 0;       // tiles in the sweep (over the largest array)
  // Full-array loads the per-pair path would have done minus the one load
  // per array the tile sweep does: for each array, (pairs touching it) −
  // 1. The DRAM-traffic reduction the blocking buys.
  std::size_t dram_passes_saved = 0;
  // Pairs routed through the sub-word materializing fallback instead of
  // the tile sweep (arrays below one word, from the sizing floor).
  std::size_t fallback_pairs = 0;
};

// Output of the batch decode below: the per-array fields once, plus one
// 8-byte count per pair — the one bits of unfold(small) | large, the
// only per-pair quantity Eq. 5 reads. A pair's JointZeroCounts is built
// from them on demand, bit-identical (words_scanned included) to
// joint_zero_counts on the same two arrays in the same operand order.
struct BatchZeroCounts {
  std::vector<std::size_t> bits;   // array i's bit count
  std::vector<std::size_t> zeros;  // array i's zero bits
  // One count per pair slot: the pair-list form keeps pair p in slot p,
  // the all-pairs form uses slot(a, b).
  UninitVector<std::size_t> ones_or;

  // All-pairs slot of arrays a != b: the row-major upper-triangle index
  // of the pair ((0,1), (0,2), ..., (1,2), ...).
  std::size_t slot(std::size_t a, std::size_t b) const {
    const std::size_t lo = std::min(a, b);
    const std::size_t hi = std::max(a, b);
    return lo * bits.size() - lo * (lo + 1) / 2 + (hi - lo - 1);
  }

  // joint_zero_counts(*arrays[first], *arrays[second]), read from the
  // pair's slot.
  JointZeroCounts counts(std::size_t first, std::size_t second,
                         std::size_t pair_slot) const {
    const bool first_is_small = bits[first] <= bits[second];
    const std::size_t small = first_is_small ? first : second;
    const std::size_t large = first_is_small ? second : first;
    JointZeroCounts out;
    out.size_small = bits[small];
    out.size_large = bits[large];
    out.zeros_small = zeros[small];
    out.zeros_large = zeros[large];
    out.zeros_or = bits[large] - ones_or[pair_slot];
    out.words_scanned = joint_words_scanned(bits[small], bits[large]);
    return out;
  }

  // All-pairs form: counts(a, b, slot(a, b)).
  JointZeroCounts at(std::size_t a, std::size_t b) const {
    return counts(a, b, slot(a, b));
  }
};

// Batch decode: the counts of EVERY unordered pair of `arrays` — the
// K-RSU form of joint_zero_counts, bit-identical to calling it per pair
// but with O(K·m) DRAM traffic per tile sweep instead of O(K²·m): each
// anchor (the larger array of its pairs) is split into word tiles, and
// each tile is combined with every partner while it is cache-hot.
//
// Layout: the arrays are ordered once by (size, index), and the array at
// position q anchors its pairs with positions [0, q) — the lower position
// plays the smaller array, the first operand on size ties, as in
// joint_zero_counts. Anchor q's partners are therefore a prefix of one
// K-entry array, and the sweep's accumulator slot of positions (p, q) is
// q(q − 1)/2 + p, so no per-pair list or placement is built; a finished
// anchor stores its counts at their triangle slots. Arrays below one
// word form a prefix of the order; their pairs take the per-pair
// materializing fallback and are left out of the sweep's slots.
// Unfold-compatibility is checked between consecutive distinct sizes and
// throws exactly as joint_zero_counts does, before any counting starts.
BatchZeroCounts joint_zero_counts_batch(std::span<const BitArray* const> arrays,
                                        const BatchDecodeOptions& options = {},
                                        BatchDecodeStats* stats = nullptr);

// Pair-list form: the counts of exactly the given (first, second) index
// pairs into `arrays`, pair p in slot p — the sweep the pruned decode
// mode runs over its survivor list. A counting sort groups the pairs by
// anchor and feeds the same tile sweep as the all-pairs form, so any
// subset's counts are bit-identical to the all-pairs ones. Any pair order
// works; within an anchor, partners are swept in list order.
// Pairs may be empty; indices must be in range and distinct.
BatchZeroCounts joint_zero_counts_batch(
    std::span<const BitArray* const> arrays,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const BatchDecodeOptions& options = {},
    BatchDecodeStats* stats = nullptr);

}  // namespace vlm::common

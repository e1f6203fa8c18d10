#include "common/bit_array.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace vlm::common {
namespace {

TEST(BitArray, StartsAllZero) {
  BitArray bits(128);
  EXPECT_EQ(bits.size(), 128u);
  EXPECT_EQ(bits.count_ones(), 0u);
  EXPECT_EQ(bits.count_zeros(), 128u);
  EXPECT_DOUBLE_EQ(bits.zero_fraction(), 1.0);
}

TEST(BitArray, RejectsZeroSize) {
  EXPECT_THROW(BitArray(0), std::invalid_argument);
}

TEST(BitArray, SetAndTest) {
  BitArray bits(70);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(69);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(69));
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(65));
  EXPECT_EQ(bits.count_ones(), 4u);
}

TEST(BitArray, SetIsIdempotent) {
  BitArray bits(16);
  bits.set(7);
  bits.set(7);
  EXPECT_EQ(bits.count_ones(), 1u);
}

TEST(BitArray, OutOfRangeAccessThrows) {
  BitArray bits(16);
  EXPECT_THROW(bits.set(16), std::invalid_argument);
  EXPECT_THROW((void)bits.test(16), std::invalid_argument);
}

TEST(BitArray, ResetClearsEverything) {
  BitArray bits(40);
  bits.set(3);
  bits.set(39);
  bits.reset();
  EXPECT_EQ(bits.count_ones(), 0u);
}

TEST(BitArray, ZeroFractionCountsExactly) {
  BitArray bits(8);
  bits.set(1);
  bits.set(2);
  EXPECT_DOUBLE_EQ(bits.zero_fraction(), 6.0 / 8.0);
}

// --- Unfolding (paper Eq. 3) ---

TEST(BitArrayUnfold, DuplicatesContent) {
  BitArray bits(4);
  bits.set(1);
  bits.set(3);
  const BitArray unfolded = bits.unfolded(12);
  ASSERT_EQ(unfolded.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(unfolded.test(i), bits.test(i % 4)) << "index " << i;
  }
}

TEST(BitArrayUnfold, PreservesZeroFraction) {
  BitArray bits(64);
  for (std::size_t i : {0u, 5u, 17u, 40u, 63u}) bits.set(i);
  const BitArray unfolded = bits.unfolded(64 * 8);
  EXPECT_DOUBLE_EQ(unfolded.zero_fraction(), bits.zero_fraction());
}

TEST(BitArrayUnfold, WordAlignedFastPathMatchesBitPath) {
  // 128 bits is word-aligned; 96 is not a power of two but still a valid
  // multiple check: use 32 -> 96 (bit path) vs 128 -> 256 (word path).
  BitArray small(32);
  small.set(0);
  small.set(31);
  const BitArray u = small.unfolded(96);
  for (std::size_t i = 0; i < 96; ++i) {
    EXPECT_EQ(u.test(i), small.test(i % 32));
  }
  BitArray aligned(128);
  aligned.set(1);
  aligned.set(127);
  const BitArray u2 = aligned.unfolded(256);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(u2.test(i), aligned.test(i % 128));
  }
}

TEST(BitArrayUnfold, ToSameSizeIsCopy) {
  BitArray bits(16);
  bits.set(9);
  EXPECT_EQ(bits.unfolded(16), bits);
}

TEST(BitArrayUnfold, RejectsNonMultipleTarget) {
  BitArray bits(8);
  EXPECT_THROW((void)bits.unfolded(12), std::invalid_argument);
  EXPECT_THROW((void)bits.unfolded(4), std::invalid_argument);
}

// Word-assembly slow path (non-word-aligned sources): every output bit
// must equal source bit i % size, and the cached ones count must scale
// by exactly the unfold ratio.
TEST(BitArrayUnfold, NonAlignedSourcesMatchBitOracle) {
  for (const std::size_t size : {1u, 7u, 63u}) {
    for (const std::size_t ratio : {2u, 3u, 16u, 100u}) {
      BitArray bits(size);
      for (std::size_t i = 0; i < size; i += 2) bits.set(i);
      const BitArray unfolded = bits.unfolded(size * ratio);
      ASSERT_EQ(unfolded.size(), size * ratio);
      for (std::size_t i = 0; i < unfolded.size(); ++i) {
        EXPECT_EQ(unfolded.test(i), bits.test(i % size))
            << "size=" << size << " ratio=" << ratio << " bit " << i;
      }
      EXPECT_EQ(unfolded.count_ones(), bits.count_ones() * ratio)
          << "size=" << size << " ratio=" << ratio;
    }
  }
}

TEST(BitArrayUnfold, SingleBitSourceExtremes) {
  // size 1 is the deepest possible fold: the unfold is all-zeros or
  // all-ones depending on the single source bit.
  BitArray zero(1);
  EXPECT_EQ(zero.unfolded(4096).count_ones(), 0u);
  BitArray one(1);
  one.set(0);
  const BitArray u = one.unfolded(4096);
  EXPECT_EQ(u.count_ones(), 4096u);
  EXPECT_TRUE(u.test(0));
  EXPECT_TRUE(u.test(4095));
}

// --- Bitwise OR (paper Eq. 4) ---

TEST(BitArrayOr, CombinesBits) {
  BitArray a(8), b(8);
  a.set(1);
  b.set(2);
  b.set(1);
  const BitArray c = a | b;
  EXPECT_TRUE(c.test(1));
  EXPECT_TRUE(c.test(2));
  EXPECT_EQ(c.count_ones(), 2u);
}

TEST(BitArrayOr, RequiresEqualSizes) {
  BitArray a(8), b(16);
  EXPECT_THROW(a |= b, std::invalid_argument);
}

TEST(BitArrayOr, IsCommutativeAndIdempotent) {
  BitArray a(64), b(64);
  for (std::size_t i : {1u, 8u, 33u}) a.set(i);
  for (std::size_t i : {2u, 8u, 63u}) b.set(i);
  EXPECT_EQ(a | b, b | a);
  EXPECT_EQ((a | b) | b, a | b);
}

// --- Word-level merge + bulk set ---

// merge_or / set_bulk maintain the cached ones-counter by popcount; these
// tests pin that against the per-bit reference across sub-word,
// word-aligned, and unaligned sizes.

BitArray patterned(std::size_t size, std::size_t stride, std::size_t phase) {
  BitArray bits(size);
  for (std::size_t i = phase; i < size; i += stride) bits.set(i);
  return bits;
}

BitArray reference_or(const BitArray& a, const BitArray& b) {
  BitArray out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.test(i) || b.test(i)) out.set(i);
  }
  return out;
}

TEST(BitArrayMergeOr, OnesCounterMatchesPerBitReference) {
  for (const std::size_t size : {13u, 64u, 100u, 128u, 257u}) {
    const BitArray a = patterned(size, 3, 1);
    const BitArray b = patterned(size, 5, 2);
    BitArray merged = a;
    merged.merge_or(b);
    const BitArray expected = reference_or(a, b);
    EXPECT_EQ(merged, expected) << "size " << size;
    EXPECT_EQ(merged.count_ones(), expected.count_ones()) << "size " << size;
    EXPECT_EQ(merged.count_zeros(), size - merged.count_ones());
  }
}

TEST(BitArrayMergeOr, ReturnsSelfForChaining) {
  BitArray a(64), b(64), c(64);
  b.set(1);
  c.set(2);
  a.merge_or(b).merge_or(c);
  EXPECT_EQ(a.count_ones(), 2u);
}

TEST(BitArraySetBulk, MatchesPerBitSetAcrossSizes) {
  for (const std::size_t size : {13u, 64u, 100u, 128u}) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < size; i += 3) indices.push_back(i);
    indices.push_back(size - 1);
    indices.push_back(0);  // duplicates must stay idempotent
    BitArray bulk(size);
    bulk.set_bulk(indices);
    BitArray per_bit(size);
    for (const std::size_t i : indices) per_bit.set(i);
    EXPECT_EQ(bulk, per_bit) << "size " << size;
    EXPECT_EQ(bulk.count_ones(), per_bit.count_ones()) << "size " << size;
  }
}

TEST(BitArraySetBulk, EmptySpanIsNoOp) {
  BitArray bits(32);
  bits.set(5);
  bits.set_bulk({});
  EXPECT_EQ(bits.count_ones(), 1u);
}

TEST(BitArraySetBulk, RejectsOutOfRangeIndex) {
  BitArray bits(32);
  const std::vector<std::size_t> indices{1, 32};
  EXPECT_THROW(bits.set_bulk(indices), std::invalid_argument);
}

TEST(BitArraySetBulk, CounterStaysConsistentAfterFurtherSets) {
  BitArray bits(100);
  const std::vector<std::size_t> indices{0, 63, 64, 99};
  bits.set_bulk(indices);
  bits.set(64);  // already set via bulk
  bits.set(50);
  EXPECT_EQ(bits.count_ones(), 5u);
}

TEST(BitArraySetBulk, DeliveriesSetOnlyDeliveredIndices) {
  // The lossy-channel form: a lost reply (0) sets nothing, a duplicated
  // one (2) sets its bit once, and the count stays exact.
  BitArray bits(130);
  const std::vector<std::size_t> indices{3, 64, 64, 129, 7, 100};
  const std::vector<std::uint8_t> deliveries{1, 0, 2, 1, 0, 2};
  bits.set_bulk(indices, deliveries);
  BitArray want(130);
  for (const std::size_t i : {3u, 64u, 129u, 100u}) want.set(i);
  EXPECT_EQ(bits, want);
  EXPECT_EQ(bits.count_ones(), 4u);
  const std::vector<std::uint8_t> short_deliveries{1};
  EXPECT_THROW(bits.set_bulk(indices, short_deliveries),
               std::invalid_argument);
}

// --- Serialization ---

TEST(BitArraySerialization, RoundTrips) {
  BitArray bits(70);
  for (std::size_t i : {0u, 7u, 8u, 64u, 69u}) bits.set(i);
  const auto bytes = bits.to_bytes();
  EXPECT_EQ(bytes.size(), 9u);
  const BitArray restored = BitArray::from_bytes(70, bytes);
  EXPECT_EQ(restored, bits);
}

TEST(BitArraySerialization, RejectsWrongLength) {
  BitArray bits(64);
  auto bytes = bits.to_bytes();
  bytes.push_back(0);
  EXPECT_THROW((void)BitArray::from_bytes(64, bytes), std::invalid_argument);
  bytes.resize(7);
  EXPECT_THROW((void)BitArray::from_bytes(64, bytes), std::invalid_argument);
  // An empty array has no valid serialization.
  EXPECT_THROW((void)BitArray::from_bytes(0, {}), std::invalid_argument);
}

TEST(BitArraySerialization, RejectsTrailingGarbageBits) {
  // Declared 12 bits -> 2 bytes; bit 13 set is out of range.
  std::vector<std::uint8_t> bytes{0x00, 0xF0};
  EXPECT_THROW((void)BitArray::from_bytes(12, bytes), std::invalid_argument);
}

TEST(BitArraySerialization, RoundTripsNonWordMultipleSizes) {
  // Sizes that are neither byte- nor word-multiples: the final byte is
  // partially occupied and the ones count from_bytes takes while copying
  // must still be exact. The large sizes straddle, end on, and run
  // several of its 4096-byte copy chunks.
  for (const std::size_t size :
       {1u, 7u, 9u, 63u, 64u, 65u, 130u, 1000u, 32767u, 32768u, 32769u,
        65536u + 8u, 100000u, 3u * 32768u + 5u}) {
    BitArray bits(size);
    for (std::size_t i = 0; i < size; i += 3) bits.set(i);
    if (size > 1) bits.set(size - 1);
    const auto bytes = bits.to_bytes();
    EXPECT_EQ(bytes.size(), (size + 7) / 8) << "size=" << size;
    const BitArray restored = BitArray::from_bytes(size, bytes);
    EXPECT_EQ(restored, bits) << "size=" << size;
    EXPECT_EQ(restored.count_ones(), bits.count_ones()) << "size=" << size;
    EXPECT_EQ(restored.to_bytes(), bytes) << "size=" << size;
  }
}

TEST(BitArraySerialization, RejectsAnyBitPastDeclaredSize) {
  // Regression: every unused bit position of the final byte must be
  // rejected, not just the top one — a malformed report cannot smuggle
  // extra ones past the recount.
  for (const std::size_t size : {1u, 7u, 9u, 65u}) {
    std::vector<std::uint8_t> bytes((size + 7) / 8, 0);
    for (std::size_t bad = size; bad < bytes.size() * 8; ++bad) {
      std::vector<std::uint8_t> tampered = bytes;
      tampered[bad / 8] = static_cast<std::uint8_t>(1u << (bad % 8));
      EXPECT_THROW((void)BitArray::from_bytes(size, tampered),
                   std::invalid_argument)
          << "size=" << size << " trailing bit " << bad;
    }
  }
}

TEST(BitArraySerialization, EmptyPatternRoundTripsAtWordBoundary) {
  BitArray bits(128);
  bits.set(127);
  const BitArray restored = BitArray::from_bytes(128, bits.to_bytes());
  EXPECT_TRUE(restored.test(127));
  EXPECT_EQ(restored.count_ones(), 1u);
}

// Reference implementation the fused kernel must match: materialize the
// unfolded array, OR, and count each zero set independently.
JointZeroCounts naive_joint_zero_counts(const BitArray& a, const BitArray& b) {
  const BitArray& small = a.size() <= b.size() ? a : b;
  const BitArray& large = a.size() <= b.size() ? b : a;
  const BitArray combined = small.size() == large.size()
                                ? small | large
                                : small.unfolded(large.size()) | large;
  JointZeroCounts out;
  out.size_small = small.size();
  out.size_large = large.size();
  out.zeros_small = small.count_zeros();
  out.zeros_large = large.count_zeros();
  out.zeros_or = combined.count_zeros();
  return out;
}

void expect_matches_naive(const BitArray& a, const BitArray& b) {
  const JointZeroCounts naive = naive_joint_zero_counts(a, b);
  const JointZeroCounts fused = joint_zero_counts(a, b);
  EXPECT_EQ(fused.size_small, naive.size_small);
  EXPECT_EQ(fused.size_large, naive.size_large);
  EXPECT_EQ(fused.zeros_small, naive.zeros_small);
  EXPECT_EQ(fused.zeros_large, naive.zeros_large);
  EXPECT_EQ(fused.zeros_or, naive.zeros_or);
  EXPECT_GT(fused.words_scanned, 0u);
}

TEST(JointZeroCounts, MatchesNaiveAcrossUnequalLengths) {
  // Word-aligned unequal sizes: the cyclic-indexing fast path.
  const std::vector<std::pair<std::size_t, std::size_t>> sizes{
      {64, 512}, {128, 1024}, {1 << 10, 1 << 14}, {1 << 12, 1 << 12}};
  for (const auto& [small_size, large_size] : sizes) {
    expect_matches_naive(patterned(small_size, 3, 1),
                         patterned(large_size, 7, 2));
  }
}

TEST(JointZeroCounts, MatchesNaiveForSubWordSizes) {
  // The sizing floor produces 8..32-bit arrays; these hit the
  // materializing fallback.
  expect_matches_naive(patterned(8, 2, 0), patterned(64, 5, 1));
  expect_matches_naive(patterned(16, 3, 1), patterned(16, 4, 0));
  expect_matches_naive(patterned(32, 5, 2), patterned(1 << 10, 9, 3));
}

TEST(JointZeroCounts, OrderInsensitive) {
  const BitArray small = patterned(256, 3, 0);
  const BitArray large = patterned(4096, 11, 5);
  const JointZeroCounts ab = joint_zero_counts(small, large);
  const JointZeroCounts ba = joint_zero_counts(large, small);
  EXPECT_EQ(ab.size_small, ba.size_small);
  EXPECT_EQ(ab.zeros_small, ba.zeros_small);
  EXPECT_EQ(ab.zeros_large, ba.zeros_large);
  EXPECT_EQ(ab.zeros_or, ba.zeros_or);
  EXPECT_EQ(ab.words_scanned, ba.words_scanned);
}

TEST(JointZeroCounts, AllZeroAndAllOneExtremes) {
  BitArray zeros(512);
  BitArray ones(4096);
  for (std::size_t i = 0; i < 4096; ++i) ones.set(i);
  const JointZeroCounts counts = joint_zero_counts(zeros, ones);
  EXPECT_EQ(counts.zeros_small, 512u);
  EXPECT_EQ(counts.zeros_large, 0u);
  EXPECT_EQ(counts.zeros_or, 0u);
}

TEST(JointZeroCounts, RejectsIncompatibleSizes) {
  // 192 does not divide 512 — the kernel must refuse with a clear error
  // rather than decode garbage, whichever way the caller orders them.
  const BitArray a(192), b(512);
  EXPECT_THROW((void)joint_zero_counts(a, b), std::invalid_argument);
  EXPECT_THROW((void)joint_zero_counts(b, a), std::invalid_argument);
  try {
    (void)joint_zero_counts(a, b);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("powers of two"), std::string::npos);
  }
}

TEST(JointZeroCounts, RejectsEmptyOperands) {
  const BitArray empty;
  const BitArray bits(64);
  EXPECT_THROW((void)joint_zero_counts(empty, bits), std::invalid_argument);
}

TEST(JointZeroCounts, SubWordFallbackMatchesReferenceExhaustively) {
  // Every sizing-floor combination the fallback can see: sub-word vs
  // sub-word (equal and unfolding) and sub-word vs multi-word, across
  // several phases, against the materializing reference.
  for (const std::size_t small_size : {8u, 16u, 32u}) {
    for (const std::size_t factor : {1u, 2u, 4u, 16u, 64u}) {
      for (std::size_t phase = 0; phase < 3; ++phase) {
        expect_matches_naive(patterned(small_size, 3, phase),
                             patterned(small_size * factor, 5, phase + 1));
      }
    }
  }
}

// --- to_bytes word-wise rewrite ---

TEST(BitArraySerialization, ToBytesMatchesPerBitExtraction) {
  // The word-wise to_bytes must emit exactly the bytes a per-bit walk
  // would, including the partially occupied final byte.
  for (const std::size_t size : {1u, 5u, 8u, 13u, 64u, 65u, 71u, 127u, 128u,
                                 129u, 1000u, 4096u}) {
    const BitArray bits = patterned(size, 3, size % 3);
    const std::vector<std::uint8_t> bytes = bits.to_bytes();
    ASSERT_EQ(bytes.size(), (size + 7) / 8) << "size=" << size;
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ((bytes[i / 8] >> (i % 8)) & 1u, bits.test(i) ? 1u : 0u)
          << "size=" << size << " bit " << i;
    }
    EXPECT_EQ(BitArray::from_bytes(size, bytes), bits) << "size=" << size;
  }
}

// --- Cache-blocked batch decode ---

TEST(JointZeroCountsBatch, MatchesPerPairForEveryTileAndWorkerChoice) {
  std::vector<BitArray> arrays;
  for (const auto& [size, stride, phase] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1 << 12, 3, 0},
        {1 << 14, 5, 1},
        {1 << 12, 7, 2},
        {1 << 13, 11, 3},
        {1 << 14, 13, 4}}) {
    arrays.push_back(patterned(size, stride, phase));
  }
  std::vector<const BitArray*> ptrs;
  for (const BitArray& a : arrays) ptrs.push_back(&a);

  for (const std::size_t tile_words :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{64},
        std::size_t{1 << 20}}) {
    for (const unsigned workers : {1u, 2u, 5u, 16u}) {
      BatchDecodeOptions options;
      options.tile_words = tile_words;
      options.workers = workers;
      BatchDecodeStats stats;
      const BatchZeroCounts got =
          joint_zero_counts_batch(ptrs, options, &stats);
      ASSERT_EQ(got.ones_or.size(), arrays.size() * (arrays.size() - 1) / 2);
      // Reference: the per-pair kernel, in both operand orders.
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        for (std::size_t b = 0; b < arrays.size(); ++b) {
          if (a == b) continue;
          const JointZeroCounts expected =
              joint_zero_counts(arrays[a], arrays[b]);
          const JointZeroCounts pair = got.at(a, b);
          EXPECT_EQ(pair.size_small, expected.size_small)
              << "tile=" << tile_words << " workers=" << workers << " pair ("
              << a << "," << b << ")";
          EXPECT_EQ(pair.size_large, expected.size_large);
          EXPECT_EQ(pair.zeros_small, expected.zeros_small);
          EXPECT_EQ(pair.zeros_large, expected.zeros_large);
          EXPECT_EQ(pair.zeros_or, expected.zeros_or);
          EXPECT_EQ(pair.words_scanned, expected.words_scanned);
        }
      }
      EXPECT_GT(stats.tile_words, 0u);
      EXPECT_GT(stats.tiles, 0u);
      EXPECT_EQ(stats.fallback_pairs, 0u);
      // 5 arrays × (4 pairs each − 1 load) saved passes.
      EXPECT_EQ(stats.dram_passes_saved, 5u * 3u);
    }
  }
}

TEST(JointZeroCountsBatch, SubWordArraysUseTheFallback) {
  // One sub-word array among word-sized ones: its pairs must fall back
  // to the materializing kernel and still match, and word-sized pairs
  // must still take the tile sweep.
  const BitArray tiny = patterned(16, 2, 1);
  const BitArray mid = patterned(256, 3, 0);
  const BitArray big = patterned(1024, 5, 2);
  const std::vector<const BitArray*> ptrs{&big, &tiny, &mid};
  BatchDecodeStats stats;
  const BatchZeroCounts got = joint_zero_counts_batch(ptrs, {}, &stats);
  ASSERT_EQ(got.ones_or.size(), 3u);
  const JointZeroCounts tm = joint_zero_counts(tiny, mid);
  const JointZeroCounts tb = joint_zero_counts(tiny, big);
  const JointZeroCounts mb = joint_zero_counts(mid, big);
  EXPECT_EQ(got.at(1, 2).zeros_or, tm.zeros_or);
  EXPECT_EQ(got.at(1, 2).words_scanned, tm.words_scanned);
  EXPECT_EQ(got.at(1, 0).zeros_or, tb.zeros_or);
  EXPECT_EQ(got.at(1, 0).words_scanned, tb.words_scanned);
  EXPECT_EQ(got.at(2, 0).zeros_or, mb.zeros_or);
  EXPECT_EQ(got.at(2, 0).words_scanned, mb.words_scanned);
  EXPECT_EQ(stats.fallback_pairs, 2u);
  // Only the (mid, big) pair is tiled: neither array is reused, so no
  // DRAM pass is saved.
  EXPECT_EQ(stats.dram_passes_saved, 0u);
}

TEST(JointZeroCountsBatch, Guards) {
  const BitArray a = patterned(128, 3, 0);
  const BitArray incompatible(192);  // 192 does not divide 512
  const BitArray b(512);
  const std::vector<const BitArray*> one{&a};
  EXPECT_THROW((void)joint_zero_counts_batch(one), std::invalid_argument);
  const std::vector<const BitArray*> bad{&incompatible, &b};
  EXPECT_THROW((void)joint_zero_counts_batch(bad), std::invalid_argument);
  const BitArray empty;
  const std::vector<const BitArray*> has_empty{&a, &empty};
  EXPECT_THROW((void)joint_zero_counts_batch(has_empty),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlm::common

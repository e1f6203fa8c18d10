// Differential fuzz of the cache-blocked batch decode: random fleets
// (K, mixed power-of-two sizes down to the sub-word sizing floor),
// random tile sizes, and random worker counts, asserted bit-identical —
// every field of JointZeroCounts — to the per-pair fused kernel, on
// every kernel variant compiled in and available on this host. The
// blocking and the parallel reduction must never change a single count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_array.h"
#include "common/kernels/kernels.h"
#include "common/rng.h"

namespace vlm::common {
namespace {

BitArray random_array(std::size_t bits, Xoshiro256ss& rng) {
  BitArray out(bits);
  // Load factors from sparse to near-saturated, so zero counts span the
  // whole range (including saturation corner cases).
  const std::size_t sets = rng.uniform(2 * bits + 1);
  for (std::size_t i = 0; i < sets; ++i) {
    out.set(static_cast<std::size_t>(rng.uniform(bits)));
  }
  return out;
}

void expect_matches_per_pair(const std::vector<BitArray>& arrays,
                             const BatchZeroCounts& got,
                             const BatchDecodeOptions& options, int trial) {
  const std::size_t k = arrays.size();
  ASSERT_EQ(got.ones_or.size(), k * (k - 1) / 2);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const JointZeroCounts expected = joint_zero_counts(arrays[a], arrays[b]);
      const JointZeroCounts pair = got.at(a, b);
      EXPECT_EQ(pair.size_small, expected.size_small)
          << "trial=" << trial << " pair (" << a << "," << b
          << ") tile=" << options.tile_words << " workers=" << options.workers;
      EXPECT_EQ(pair.size_large, expected.size_large);
      EXPECT_EQ(pair.zeros_small, expected.zeros_small);
      EXPECT_EQ(pair.zeros_large, expected.zeros_large);
      EXPECT_EQ(pair.zeros_or, expected.zeros_or)
          << "trial=" << trial << " pair (" << a << "," << b
          << ") tile=" << options.tile_words << " workers=" << options.workers;
      EXPECT_EQ(pair.words_scanned, expected.words_scanned);
    }
  }
}

class BatchDecodeFuzz : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    if (!kernels::available(GetParam())) {
      GTEST_SKIP() << kernels::isa_name(GetParam())
                   << " not available on this host";
    }
  }
};

TEST_P(BatchDecodeFuzz, BlockedMatchesPerPairEverywhere) {
  const kernels::KernelTable& table = kernels::table_for(GetParam());
  Xoshiro256ss rng(0xB10C + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 2 + rng.uniform(9);  // 2..10 arrays
    std::vector<BitArray> arrays;
    arrays.reserve(k);
    for (std::size_t r = 0; r < k; ++r) {
      // Power-of-two sizes from the sub-word sizing floor (8 bits) to
      // 2^14, so unfold ratios, sub-word fallbacks, and equal-size pairs
      // all occur.
      const std::size_t bits = std::size_t{1} << (3 + rng.uniform(12));
      arrays.push_back(random_array(bits, rng));
    }
    std::vector<const BitArray*> ptrs;
    for (const BitArray& a : arrays) ptrs.push_back(&a);

    BatchDecodeOptions options;
    const std::size_t tile_choices[] = {1, 2, 3, 8, 64, 1024, 0};
    options.tile_words = tile_choices[rng.uniform(7)];
    const unsigned worker_choices[] = {1, 2, 3, 7};
    options.workers = worker_choices[rng.uniform(4)];
    options.table = &table;
    BatchDecodeStats stats;
    expect_matches_per_pair(arrays,
                            joint_zero_counts_batch(ptrs, options, &stats),
                            options, trial);
  }
}

// Skewed fleets: many small arrays plus one or two at least 64× larger.
// The big anchors carry most of the sweep's cost, so the equal-cost
// worker cuts land inside them — one anchor's tiles are split across
// several workers, whose partials must sum to exactly the per-pair
// counts. Even trials (K = 64..80, giants of 2^19..2^20 bits) take the
// tile-major work order at low worker counts and the anchor-major order
// at high ones; odd trials (K = 512..560, giants of 2^15..2^16 bits,
// over 10^5 pairs) always take the anchor-major order.
TEST_P(BatchDecodeFuzz, SkewedSizesSplitAnchorsAcrossWorkers) {
  const kernels::KernelTable& table = kernels::table_for(GetParam());
  Xoshiro256ss rng(0x5CE3 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const bool small_fleet = trial % 2 == 0;
    const std::size_t k =
        small_fleet ? 64 + rng.uniform(17) : 512 + rng.uniform(49);
    const std::size_t big = 1 + rng.uniform(2);  // one or two giants
    std::vector<BitArray> arrays;
    arrays.reserve(k);
    for (std::size_t r = 0; r < k; ++r) {
      // Small arrays: 2^7..2^9 bits (2..8 words, many equal-size ties);
      // giants ≥ 64× larger, placed at random positions so they anchor
      // pairs from both sides.
      arrays.push_back(random_array(std::size_t{1} << (7 + rng.uniform(3)),
                                    rng));
    }
    for (std::size_t g = 0; g < big; ++g) {
      const std::size_t giant_exp = (small_fleet ? 19 : 15) + rng.uniform(2);
      arrays[rng.uniform(k)] =
          random_array(std::size_t{1} << giant_exp, rng);
    }
    std::vector<const BitArray*> ptrs;
    for (const BitArray& a : arrays) ptrs.push_back(&a);

    for (const unsigned workers : {1u, 2u, 4u, 7u}) {
      BatchDecodeOptions options;
      const std::size_t tile_choices[] = {1, 8, 64, 0};
      options.tile_words = tile_choices[rng.uniform(4)];
      options.workers = workers;
      options.table = &table;
      expect_matches_per_pair(arrays, joint_zero_counts_batch(ptrs, options),
                              options, trial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BatchDecodeFuzz,
                         ::testing::Values(kernels::Isa::kScalar,
                                           kernels::Isa::kAvx2,
                                           kernels::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<kernels::Isa>&
                                param) {
                           return kernels::isa_name(param.param);
                         });

}  // namespace
}  // namespace vlm::common

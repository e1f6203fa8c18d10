// Differential fuzz: every SIMD kernel variant present on this host is
// run against the scalar baseline over randomized inputs — word counts
// straddling vector widths, unaligned tails, arbitrary cyclic periods,
// and the power-of-two unfold ratios (up to 2^10) the sizing policy
// actually produces. Counts AND mutated words must match exactly; a
// variant the host lacks is skipped, never failed, so one test binary
// serves the whole CI matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/rng.h"

namespace vlm::common::kernels {
namespace {

std::vector<std::uint64_t> random_words(std::size_t n,
                                        common::Xoshiro256ss& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) {
    // Mix densities so tails of all-zero / all-one words appear too.
    switch (rng.uniform(4)) {
      case 0: w = 0; break;
      case 1: w = ~std::uint64_t{0}; break;
      default: w = rng.next(); break;
    }
  }
  return out;
}

class KernelFuzz : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!available(GetParam())) {
      GTEST_SKIP() << isa_name(GetParam()) << " not available on this host";
    }
  }
  const KernelTable& variant() { return table_for(GetParam()); }
  const KernelTable& scalar() { return scalar_table(); }
};

TEST_P(KernelFuzz, PopcountMatchesScalar) {
  common::Xoshiro256ss rng(0xF122);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform(600);
    const auto words = random_words(n, rng);
    EXPECT_EQ(variant().popcount(words.data(), n),
              scalar().popcount(words.data(), n))
        << "n=" << n << " trial=" << trial;
  }
}

TEST_P(KernelFuzz, OrPopcountCyclicMatchesScalarForArbitraryPeriods) {
  common::Xoshiro256ss rng(0xF123);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n_large = 1 + rng.uniform(500);
    // Periods deliberately include 1..17 (broadcast + fallback paths)
    // and values larger than n_large.
    const std::size_t n_small = 1 + rng.uniform(trial % 2 == 0 ? 17 : 600);
    const auto large = random_words(n_large, rng);
    const auto small = random_words(n_small, rng);
    EXPECT_EQ(
        variant().or_popcount_cyclic(large.data(), n_large, small.data(),
                                     n_small),
        scalar().or_popcount_cyclic(large.data(), n_large, small.data(),
                                    n_small))
        << "n_large=" << n_large << " n_small=" << n_small;
  }
}

TEST_P(KernelFuzz, OrPopcountCyclicMatchesScalarForPowerOfTwoUnfolds) {
  common::Xoshiro256ss rng(0xF124);
  for (int trial = 0; trial < 200; ++trial) {
    // The sizing policy's real shape: both word counts are powers of
    // two, ratio up to 2^10 (the paper's deepest unfold).
    const std::size_t n_small = std::size_t{1} << rng.uniform(7);   // 1..64
    const std::size_t ratio = std::size_t{1} << rng.uniform(11);    // 1..1024
    const std::size_t n_large = n_small * ratio;
    const auto large = random_words(n_large, rng);
    const auto small = random_words(n_small, rng);
    EXPECT_EQ(
        variant().or_popcount_cyclic(large.data(), n_large, small.data(),
                                     n_small),
        scalar().or_popcount_cyclic(large.data(), n_large, small.data(),
                                    n_small))
        << "n_small=" << n_small << " ratio=" << ratio;
  }
}

TEST_P(KernelFuzz, OrPopcountCyclicBatchMatchesScalar) {
  common::Xoshiro256ss rng(0xF127);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_anchor = 1 + rng.uniform(400);
    const std::size_t n_partners = 1 + rng.uniform(6);
    const auto anchor = random_words(n_anchor, rng);
    std::vector<std::vector<std::uint64_t>> storage;
    std::vector<const std::uint64_t*> partners;
    std::vector<std::size_t> periods;
    for (std::size_t j = 0; j < n_partners; ++j) {
      // Mix power-of-two periods (the production shape) with arbitrary
      // ones so every alignment branch of the batch kernel fires.
      const std::size_t period = trial % 2 == 0
                                     ? std::size_t{1} << rng.uniform(9)
                                     : 1 + rng.uniform(500);
      storage.push_back(random_words(period, rng));
      partners.push_back(storage.back().data());
      periods.push_back(period);
    }
    // Random tile inside the anchor, so tile_begin % period takes every
    // residue class.
    const std::size_t tile_begin = rng.uniform(n_anchor);
    const std::size_t tile_end =
        tile_begin + 1 + rng.uniform(n_anchor - tile_begin);
    std::vector<std::size_t> acc_variant(n_partners, 7);
    std::vector<std::size_t> acc_scalar(n_partners, 7);
    variant().or_popcount_cyclic_batch(anchor.data(), tile_begin, tile_end,
                                       partners.data(), periods.data(),
                                       n_partners, acc_variant.data());
    scalar().or_popcount_cyclic_batch(anchor.data(), tile_begin, tile_end,
                                      partners.data(), periods.data(),
                                      n_partners, acc_scalar.data());
    EXPECT_EQ(acc_variant, acc_scalar)
        << "n_anchor=" << n_anchor << " tile=[" << tile_begin << ","
        << tile_end << ") trial=" << trial;
  }
}

TEST_P(KernelFuzz, MergeOrMatchesScalarWordsAndCount) {
  common::Xoshiro256ss rng(0xF125);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform(600);
    const auto base = random_words(n, rng);
    const auto src = random_words(n, rng);
    std::vector<std::uint64_t> dst_variant = base;
    std::vector<std::uint64_t> dst_scalar = base;
    const std::size_t ones_variant =
        variant().merge_or(dst_variant.data(), src.data(), n);
    const std::size_t ones_scalar =
        scalar().merge_or(dst_scalar.data(), src.data(), n);
    EXPECT_EQ(ones_variant, ones_scalar) << "n=" << n;
    EXPECT_EQ(dst_variant, dst_scalar) << "n=" << n;
  }
}

TEST_P(KernelFuzz, SetScatterMatchesScalarWordsAndCount) {
  common::Xoshiro256ss rng(0xF126);
  for (int trial = 0; trial < 300; ++trial) {
    // Sub-word arrays (bit_count < 64) through multi-word, never a
    // multiple of 64 in half the trials.
    const std::size_t bit_count = 1 + rng.uniform(4000);
    const std::size_t n_words = (bit_count + 63) / 64;
    const std::size_t n_indices = rng.uniform(2 * bit_count + 1);
    std::vector<std::size_t> indices(n_indices);
    for (auto& idx : indices) idx = rng.uniform(bit_count);  // dups likely
    std::vector<std::uint64_t> words_variant(n_words, 0);
    std::vector<std::uint64_t> words_scalar(n_words, 0);
    const std::size_t ones_variant = variant().set_scatter(
        words_variant.data(), bit_count, indices.data(), indices.size());
    const std::size_t ones_scalar = scalar().set_scatter(
        words_scalar.data(), bit_count, indices.data(), indices.size());
    EXPECT_EQ(ones_variant, ones_scalar) << "bits=" << bit_count;
    EXPECT_EQ(words_variant, words_scalar) << "bits=" << bit_count;
  }
}

TEST_P(KernelFuzz, EncodeBatchMatchesScalar) {
  common::Xoshiro256ss rng(0xF128);
  for (int trial = 0; trial < 300; ++trial) {
    // Lengths deliberately include 0, 1, and non-multiples of the vector
    // lane width so every masked/scalar tail path fires.
    const std::size_t n = trial < 3 ? static_cast<std::size_t>(trial)
                                    : 1 + rng.uniform(200);
    // Power-of-two slot counts take the vectorized modulo; non-powers
    // must defer to the shared scalar tail and still match bit-for-bit.
    static constexpr std::uint64_t kSlotCounts[] = {1, 2, 3, 4, 5, 7, 8, 16};
    const std::uint64_t slot_count = kSlotCounts[rng.uniform(8)];
    const std::uint64_t slot_input = rng.next();
    const std::uint64_t fold_mask = (std::uint64_t{1} << (6 + rng.uniform(15))) - 1;
    std::vector<std::uint64_t> salts(slot_count);
    for (auto& salt : salts) salt = rng.next();
    std::vector<std::uint64_t> keys(n);
    for (auto& key : keys) key = rng.next();
    std::vector<std::size_t> out_variant(n, 0xDEAD);
    std::vector<std::size_t> out_scalar(n, 0xBEEF);
    variant().encode_batch(keys.data(), n, slot_input, salts.data(),
                           slot_count, fold_mask, out_variant.data());
    scalar().encode_batch(keys.data(), n, slot_input, salts.data(),
                          slot_count, fold_mask, out_scalar.data());
    EXPECT_EQ(out_variant, out_scalar)
        << "n=" << n << " slot_count=" << slot_count << " trial=" << trial;
  }
}

TEST_P(KernelFuzz, ZipfRankBatchMatchesScalar) {
  common::Xoshiro256ss rng(0xF129);
  // Block sizes straddling every lane boundary of both vector widths,
  // plus empty and single-element blocks, before the randomized tail.
  static constexpr std::size_t kBoundaryBlocks[] = {0, 1, 3,  4,  5,  7,
                                                    8, 9, 15, 16, 17, 33};
  for (int trial = 0; trial < 250; ++trial) {
    // Random CDF shaped exactly like MultiRsuWorkload's: non-decreasing
    // 2^53-scaled thresholds whose final entry (cdf = 1.0 exactly) is
    // 2^53 + 1 — strictly above every 53-bit draw, the termination
    // guarantee of the walk contract.
    const std::size_t ranks = 2 + rng.uniform(60);
    std::vector<std::uint64_t> thresholds(ranks);
    for (std::size_t r = 0; r + 1 < ranks; ++r) {
      thresholds[r] = 1 + (rng.next() >> 11);
    }
    std::sort(thresholds.begin(), thresholds.end() - 1);
    thresholds[ranks - 1] = (std::uint64_t{1} << 53) + 1;
    // Guide table built by the workload's own recurrence, with a
    // randomized buckets-per-rank density so guide entries sit anywhere
    // from exact answers to several steps below them.
    const std::uint64_t buckets = ranks * (1 + rng.uniform(12));
    std::vector<std::uint32_t> guide(buckets + 1);
    std::uint32_t rank = 0;
    for (std::uint64_t j = 0; j <= buckets; ++j) {
      const auto smallest = static_cast<std::uint64_t>(
          ((static_cast<unsigned __int128>(j) << 53) + buckets - 1) / buckets);
      while (rank < ranks && thresholds[rank] <= smallest) ++rank;
      guide[j] = rank;
    }
    const std::size_t n = trial < 12 ? kBoundaryBlocks[trial]
                                     : 1 + rng.uniform(600);
    std::vector<std::uint64_t> states(n);
    for (auto& s : states) s = rng.next();
    std::vector<std::uint32_t> out_variant(n, 0xDEADu);
    std::vector<std::uint32_t> out_scalar(n, 0xBEEFu);
    variant().zipf_rank_batch(states.data(), n, thresholds.data(),
                              guide.data(), buckets, out_variant.data());
    scalar().zipf_rank_batch(states.data(), n, thresholds.data(), guide.data(),
                             buckets, out_scalar.data());
    EXPECT_EQ(out_variant, out_scalar)
        << "n=" << n << " ranks=" << ranks << " buckets=" << buckets
        << " trial=" << trial;
  }
}

TEST_P(KernelFuzz, OrPopcountSampledMatchesScalarAtEveryStride) {
  common::Xoshiro256ss rng(0xF12A);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n_large = 1 + rng.uniform(600);
    // Same period mix as the cyclic fuzz: tiny broadcast periods and
    // periods larger than the sampled array both occur.
    const std::size_t n_small = 1 + rng.uniform(trial % 2 == 0 ? 17 : 600);
    const auto large = random_words(n_large, rng);
    const auto small = random_words(n_small, rng);
    // Strides straddling the block count: 1 (every block), mid, and
    // beyond (only block 0 sampled).
    const std::size_t blocks = (n_large + 7) / 8;
    const std::size_t strides[] = {1, 1 + rng.uniform(blocks),
                                   blocks + 1 + rng.uniform(8)};
    for (const std::size_t stride : strides) {
      EXPECT_EQ(variant().or_popcount_sampled(large.data(), n_large,
                                              small.data(), n_small, stride),
                scalar().or_popcount_sampled(large.data(), n_large,
                                             small.data(), n_small, stride))
          << "n_large=" << n_large << " n_small=" << n_small
          << " stride=" << stride;
    }
    // stride == 1 visits every block: the sample IS the full cyclic
    // union, and the denominator covers the whole array.
    EXPECT_EQ(variant().or_popcount_sampled(large.data(), n_large,
                                            small.data(), n_small, 1),
              variant().or_popcount_cyclic(large.data(), n_large,
                                           small.data(), n_small))
        << "n_large=" << n_large << " n_small=" << n_small;
    EXPECT_EQ(sampled_word_count(n_large, 1), n_large);
  }
}

TEST_P(KernelFuzz, OrPopcountSampledNeverExceedsSampledWordCapacity) {
  common::Xoshiro256ss rng(0xF12B);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_large = 1 + rng.uniform(600);
    const std::size_t n_small = 1 + rng.uniform(600);
    const std::size_t stride = 1 + rng.uniform(80);
    // All-ones operands: the sampled popcount must land exactly on
    // 64 * sampled_word_count — pinning the denominator the prune rule
    // divides by to the words the kernel actually visits.
    const std::vector<std::uint64_t> large(n_large, ~std::uint64_t{0});
    const std::vector<std::uint64_t> small(n_small, ~std::uint64_t{0});
    EXPECT_EQ(variant().or_popcount_sampled(large.data(), n_large,
                                            small.data(), n_small, stride),
              sampled_word_count(n_large, stride) * 64)
        << "n_large=" << n_large << " stride=" << stride;
  }
}

TEST_P(KernelFuzz, ZipfRankRunsMatchesScalarAndExpandedBatch) {
  common::Xoshiro256ss rng(0xF12C);
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 150; ++trial) {
    // Reuse the workload-shaped CDF construction from the batch fuzz.
    const std::size_t ranks = 2 + rng.uniform(60);
    std::vector<std::uint64_t> thresholds(ranks);
    for (std::size_t r = 0; r + 1 < ranks; ++r) {
      thresholds[r] = 1 + (rng.next() >> 11);
    }
    std::sort(thresholds.begin(), thresholds.end() - 1);
    thresholds[ranks - 1] = (std::uint64_t{1} << 53) + 1;
    const std::uint64_t buckets = ranks * (1 + rng.uniform(12));
    std::vector<std::uint32_t> guide(buckets + 1);
    std::uint32_t rank = 0;
    for (std::uint64_t j = 0; j <= buckets; ++j) {
      const auto smallest = static_cast<std::uint64_t>(
          ((static_cast<unsigned __int128>(j) << 53) + buckets - 1) / buckets);
      while (rank < ranks && thresholds[rank] <= smallest) ++rank;
      guide[j] = rank;
    }
    // Run lists with empty runs, single-slot runs, and runs straddling
    // the implementations' internal chunk size (1024 states).
    const std::size_t n_runs = trial == 0 ? 0 : 1 + rng.uniform(40);
    std::vector<std::uint64_t> starts(n_runs);
    std::vector<std::uint32_t> run_slots(n_runs);
    std::vector<std::uint64_t> expanded;
    const auto slots = [&](std::uint64_t n) {
      return static_cast<std::uint32_t>(rng.uniform(n));
    };
    for (std::size_t i = 0; i < n_runs; ++i) {
      starts[i] = rng.next();
      switch (rng.uniform(5)) {
        case 0: run_slots[i] = 0; break;
        case 1: run_slots[i] = 1; break;
        case 2: run_slots[i] = 1020 + slots(10); break;  // chunk edge
        default: run_slots[i] = slots(120); break;
      }
      for (std::uint32_t s = 0; s < run_slots[i]; ++s) {
        expanded.push_back(starts[i] + s * kGamma);
      }
    }
    std::vector<std::uint32_t> out_variant(expanded.size(), 0xDEADu);
    std::vector<std::uint32_t> out_scalar(expanded.size(), 0xBEEFu);
    std::vector<std::uint32_t> out_expanded(expanded.size(), 0xF00Du);
    variant().zipf_rank_runs(starts.data(), run_slots.data(), n_runs, kGamma,
                             thresholds.data(), guide.data(), buckets,
                             out_variant.data());
    scalar().zipf_rank_runs(starts.data(), run_slots.data(), n_runs, kGamma,
                            thresholds.data(), guide.data(), buckets,
                            out_scalar.data());
    variant().zipf_rank_batch(expanded.data(), expanded.size(),
                              thresholds.data(), guide.data(), buckets,
                              out_expanded.data());
    EXPECT_EQ(out_variant, out_scalar)
        << "n_runs=" << n_runs << " total=" << expanded.size();
    EXPECT_EQ(out_variant, out_expanded)
        << "n_runs=" << n_runs << " total=" << expanded.size();
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelFuzz,
                         ::testing::Values(Isa::kAvx2, Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& param) {
                           return isa_name(param.param);
                         });

}  // namespace
}  // namespace vlm::common::kernels

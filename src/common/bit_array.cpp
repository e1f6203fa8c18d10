#include "common/bit_array.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "common/require.h"
#include "common/uninit.h"
#include "obs/trace.h"

namespace vlm::common {

BitArray::BitArray(std::size_t bit_count)
    : bit_count_(bit_count), words_(word_count_for(bit_count), 0) {
  VLM_REQUIRE(bit_count > 0, "bit array must have at least one bit");
}

void BitArray::set(std::size_t index) {
  VLM_REQUIRE(index < bit_count_, "bit index out of range");
  std::uint64_t& word = words_[index / kWordBits];
  const std::uint64_t mask = std::uint64_t{1} << (index % kWordBits);
  ones_ += static_cast<std::size_t>((word & mask) == 0);
  word |= mask;
}

bool BitArray::test(std::size_t index) const {
  VLM_REQUIRE(index < bit_count_, "bit index out of range");
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1u;
}

void BitArray::reset() {
  for (auto& w : words_) w = 0;
  ones_ = 0;
  ones_stale_ = false;
}

std::size_t BitArray::count_ones() const {
  if (ones_stale_) {
    ones_ = kernels::active().popcount(words_.data(), words_.size());
    ones_stale_ = false;
  }
  return ones_;
}

double BitArray::zero_fraction() const {
  VLM_REQUIRE(bit_count_ > 0, "zero_fraction of an empty array is undefined");
  return static_cast<double>(count_zeros()) / static_cast<double>(bit_count_);
}

BitArray BitArray::unfolded(std::size_t target_size) const {
  VLM_REQUIRE(bit_count_ > 0, "cannot unfold an empty array");
  VLM_REQUIRE(target_size >= bit_count_ && target_size % bit_count_ == 0,
              "unfold target must be a positive multiple of the array size");
  BitArray out(target_size);
  if (bit_count_ % kWordBits == 0) {
    // Word-aligned source: every output word is a whole source word.
    const std::size_t src_words = words_.size();
    for (std::size_t w = 0; w < out.words_.size(); ++w) {
      out.words_[w] = words_[w % src_words];
    }
  } else {
    // Non-word-aligned source (sub-64-bit arrays from very light RSUs,
    // or odd sizes in tests): assemble each output word from source
    // fragments read with word-level shifts — a fragment is bounded by
    // the end of the output word, the end of the source, or the end of
    // the array, so this is O(words_out · max(1, 64/size)) instead of
    // the former one-bit-at-a-time set/test loop.
    auto read_bits = [&](std::size_t pos, std::size_t len) {
      const std::size_t w = pos / kWordBits;
      const std::size_t off = pos % kWordBits;
      std::uint64_t bits = words_[w] >> off;
      if (off + len > kWordBits) {
        bits |= words_[w + 1] << (kWordBits - off);
      }
      if (len < kWordBits) bits &= (std::uint64_t{1} << len) - 1;
      return bits;
    };
    std::size_t out_bit = 0;
    std::size_t src_pos = 0;
    while (out_bit < target_size) {
      const std::size_t len =
          std::min({kWordBits - out_bit % kWordBits, bit_count_ - src_pos,
                    target_size - out_bit});
      out.words_[out_bit / kWordBits] |= read_bits(src_pos, len)
                                         << (out_bit % kWordBits);
      out_bit += len;
      src_pos += len;
      if (src_pos == bit_count_) src_pos = 0;
    }
  }
  // Unfolding repeats the pattern exactly target/size times, so the
  // ones count scales with the ratio — no recount sweep needed (beyond
  // flushing a pending set_bulk recount on the source).
  out.ones_ = count_ones() * (target_size / bit_count_);
  return out;
}

BitArray& BitArray::merge_or(const BitArray& other) {
  VLM_REQUIRE(bit_count_ == other.bit_count_,
              "bitwise OR requires equal-sized arrays (unfold first)");
  ones_ = kernels::active().merge_or(words_.data(), other.words_.data(),
                                     words_.size());
  ones_stale_ = false;
  return *this;
}

void BitArray::set_bulk(std::span<const std::size_t> indices) {
  if (indices.empty()) return;
  if (indices.size() < words_.size()) {
    // Small batch relative to the array — the common case under the
    // sub-slice pipeline schedule, which hands each bucket many small
    // chunks per period. Just write the bits and defer the recount to
    // the next count_ones() read (or to the merge sweep, which recounts
    // anyway), so the cost is O(n) per call, never O(m/64).
    const std::size_t n = indices.size();
    for (std::size_t i = 0; i < n; ++i) {
      // The word touched 32 iterations ahead is a data-dependent random
      // address — prefetching it keeps several misses in flight instead
      // of serializing on each RMW. (Prefetch never faults, so the
      // not-yet-validated index is safe to feed it.)
      if (i + 32 < n) {
        __builtin_prefetch(&words_[indices[i + 32] / kWordBits], 1, 1);
      }
      const std::size_t index = indices[i];
      VLM_REQUIRE(index < bit_count_, "bit index out of range");
      words_[index / kWordBits] |= std::uint64_t{1} << (index % kWordBits);
    }
    ones_stale_ = true;
    return;
  }
  ones_ = kernels::active().set_scatter(words_.data(), bit_count_,
                                        indices.data(), indices.size());
  ones_stale_ = false;
}

void BitArray::set_bulk(std::span<const std::size_t> indices,
                        std::span<const std::uint8_t> deliveries) {
  VLM_REQUIRE(indices.size() == deliveries.size(),
              "every index needs a delivery count");
  const std::size_t n = indices.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 32 < n) {
      __builtin_prefetch(&words_[indices[i + 32] / kWordBits], 1, 1);
    }
    const std::size_t index = indices[i];
    VLM_REQUIRE(index < bit_count_, "bit index out of range");
    // Branch-free: a lost reply ORs in a zero.
    words_[index / kWordBits] |=
        std::uint64_t{deliveries[i] != 0} << (index % kWordBits);
  }
  if (n > 0) ones_stale_ = true;
}

std::vector<std::uint8_t> BitArray::to_bytes() const {
  const std::size_t size = (bit_count_ + 7) / 8;
  if constexpr (std::endian::native == std::endian::little) {
    // The words' memory already is the wire layout, trailing bits zero:
    // one copy, with no zero-fill pass ahead of it.
    const auto* first = reinterpret_cast<const std::uint8_t*>(words_.data());
    return std::vector<std::uint8_t>(first, first + size);
  } else {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t b = 0; b < size; ++b) {
      bytes[b] = static_cast<std::uint8_t>(words_[b / 8] >> (b % 8 * 8));
    }
    return bytes;
  }
}

namespace {

// The one unfold-compatibility check behind joint_zero_counts and both
// batch forms, so every path throws the same message.
void require_unfold_compatible(std::size_t size_small, std::size_t size_large) {
  VLM_REQUIRE(size_large % size_small == 0,
              "array sizes are not unfold-compatible: the smaller size must "
              "divide the larger — size both arrays as powers of two "
              "(Section IV-A) and this holds automatically");
}

}  // namespace

JointZeroCounts joint_zero_counts(const BitArray& a, const BitArray& b) {
  VLM_REQUIRE(!a.empty() && !b.empty(),
              "joint zero counts need two non-empty arrays");
  const BitArray& small = a.size() <= b.size() ? a : b;
  const BitArray& large = a.size() <= b.size() ? b : a;
  require_unfold_compatible(small.size(), large.size());

  // The per-array zero counts are maintained by the arrays themselves
  // (O(1)), so the only sweep is over the OR.
  JointZeroCounts out;
  out.size_small = small.size();
  out.size_large = large.size();
  out.zeros_small = small.count_zeros();
  out.zeros_large = large.count_zeros();
  out.words_scanned = joint_words_scanned(small.size(), large.size());

  const std::span<const std::uint64_t> sw = small.words();
  const std::span<const std::uint64_t> lw = large.words();
  if (small.size() % BitArray::kWordBits == 0) {
    // Word-aligned sizes: the fused OR + popcount kernel streams the
    // larger array once and indexes the smaller array's words cyclically
    // instead of materializing the unfold. The sweep runs on whichever
    // ISA the dispatch selected.
    out.zeros_or = large.size() - kernels::active().or_popcount_cyclic(
                                      lw.data(), lw.size(), sw.data(),
                                      sw.size());
  } else {
    // Sub-word sizes (the sizing floor can produce 8..32-bit arrays):
    // fall back to the materializing reference path; these arrays are a
    // handful of bytes, so the copy is irrelevant.
    const BitArray combined = small.size() == large.size()
                                  ? small | large
                                  : small.unfolded(large.size()) | large;
    out.zeros_or = combined.count_zeros();
  }
  return out;
}

namespace {

// Auto tile size: budget ~1 MiB of L2 for one tile of every array, so a
// whole tile sweep (anchor + every partner tile) stays cache-resident
// while the batch kernel reuses it K−1 times. Clamped so tiny
// deployments still amortize the per-tile kernel-call overhead and huge
// ones never fall below a vector-friendly tile.
std::size_t auto_tile_words(std::size_t array_count) {
  constexpr std::size_t kBudgetWords = (std::size_t{1} << 20) / sizeof(std::uint64_t);
  const std::size_t per_array =
      std::clamp<std::size_t>(kBudgetWords / std::max<std::size_t>(1, array_count),
                              std::size_t{256}, std::size_t{65536});
  return std::bit_floor(per_array);
}

// The per-array fields of both batch forms, read once per array instead
// of once per pair (count_zeros may flush a pending recount, so after
// this the arrays are clean and the sweep and the sub-word fallback only
// read them).
BatchZeroCounts per_array_fields(std::span<const BitArray* const> arrays) {
  BatchZeroCounts out;
  out.bits.reserve(arrays.size());
  out.zeros.reserve(arrays.size());
  for (const BitArray* array : arrays) {
    VLM_REQUIRE(array != nullptr && !array->empty(),
                "joint zero counts need two non-empty arrays");
    out.bits.push_back(array->size());
    out.zeros.push_back(array->count_zeros());
  }
  return out;
}

// One anchor of the tile sweep: the larger array of its pairs, and its
// partners' words (each partner smaller, or equal and first on a tie).
struct SweepAnchor {
  const std::uint64_t* words = nullptr;
  std::size_t n_words = 0;
  const std::uint64_t* const* partners = nullptr;
  const std::size_t* partner_words = nullptr;
  std::size_t n_partners = 0;
};

struct SweepShape {
  std::size_t tile_words = 0;  // 0 when no anchor has a partner
  std::size_t tiles = 0;       // tiles over the largest anchor
};

// The tile sweep both batch forms feed. For every anchor i with
// partners, calls write(i, ones) exactly once, where ones[j] is the one
// bits of unfold(partner j) | anchor i. `fleet_words` is the word count
// of every array in the batch; `array_count` sizes the auto tile.
template <typename Write>
SweepShape sweep_anchors(std::span<const SweepAnchor> anchors,
                         std::size_t fleet_words, std::size_t array_count,
                         const BatchDecodeOptions& options,
                         const Write& write) {
  const kernels::KernelTable& table =
      options.table != nullptr ? *options.table : kernels::active();
  // Each anchor's partners get a contiguous accumulator range starting
  // at acc_begin[i], in anchor order.
  std::vector<std::size_t> acc_begin(anchors.size() + 1, 0);
  std::size_t max_anchor_words = 0;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    acc_begin[i + 1] = acc_begin[i] + anchors[i].n_partners;
    if (anchors[i].n_partners > 0) {
      max_anchor_words = std::max(max_anchor_words, anchors[i].n_words);
    }
  }
  if (max_anchor_words == 0) return {};
  SweepShape shape;
  shape.tile_words = options.tile_words != 0 ? options.tile_words
                                             : auto_tile_words(array_count);
  shape.tiles = (max_anchor_words + shape.tile_words - 1) / shape.tile_words;
  const std::size_t tile_words = shape.tile_words;

  // The work list: one item per (anchor, tile), each weighted by its
  // kernel work (tile words × partners); `cost_end` is the running
  // total. The order decides which workers share an anchor:
  //   - tile-major (tile t of every anchor, then tile t + 1): each
  //     worker takes a band of tiles across all anchors, so its band of
  //     every partner stays cache-hot from one anchor to the next. But
  //     every worker then needs an accumulator over every slot.
  //   - anchor-major (an anchor's tiles in a row): each worker owns
  //     whole anchors and only the anchors straddling a cut need
  //     per-worker partials, but a partner is re-read for every anchor
  //     it pairs with.
  // Tile-major is taken while those accumulators (workers × slots
  // words) are no larger than the arrays themselves. On a 4-core
  // avx512 host with 4 workers it ran 1.3–2× faster than anchor-major
  // at K = 64–512 with multi-tile arrays (K = 64, m = 2^22: 28 vs
  // 44–56 ms), and ~10% slower at K = 1024, m = 2^16, where the
  // accumulators are twice the arrays' size (16 MiB).
  const unsigned workers =
      options.workers == 0 ? default_worker_count() : options.workers;
  const std::size_t slots = acc_begin.back();
  const bool tile_major = slots * workers <= fleet_words;
  struct Item {
    std::size_t anchor;
    std::size_t word_begin;
    std::size_t word_end;
    std::size_t cost_end;
  };
  std::vector<Item> items;
  // An anchor's first and last item.
  std::vector<std::size_t> first_item(anchors.size(), 0);
  std::vector<std::size_t> last_item(anchors.size(), 0);
  std::size_t cost = 0;
  const auto add_item = [&](std::size_t a, std::size_t word_begin) {
    const std::size_t word_end =
        std::min(anchors[a].n_words, word_begin + tile_words);
    cost += (word_end - word_begin) * anchors[a].n_partners;
    if (word_begin == 0) first_item[a] = items.size();
    last_item[a] = items.size();
    items.push_back(Item{a, word_begin, word_end, cost});
  };
  for (std::size_t t = 0; t < (tile_major ? shape.tiles : 1); ++t) {
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      if (anchors[a].n_partners == 0) continue;
      if (tile_major) {
        if (t * tile_words < anchors[a].n_words) add_item(a, t * tile_words);
      } else {
        for (std::size_t w = 0; w < anchors[a].n_words; w += tile_words) {
          add_item(a, w);
        }
      }
    }
  }

  // Cut the item list into one contiguous run of equal cost per worker.
  // The cuts are a pure function of the anchors and the worker count. A
  // worker whose run holds all of an anchor's items writes that anchor's
  // counts directly; an anchor split across runs gets one partial per
  // run, summed below in worker order. Integer partials are exact, so
  // the counts are bit-identical for every (workers, tile_words) choice.
  const std::size_t runs = std::min<std::size_t>(workers, items.size());
  std::vector<std::size_t> cuts(runs + 1, items.size());
  for (std::size_t w = 0; w < runs; ++w) {
    cuts[w] = static_cast<std::size_t>(
        std::upper_bound(items.begin(), items.end(), cost * w / runs,
                         [](std::size_t t, const Item& item) {
                           return t < item.cost_end;
                         }) -
        items.begin());
  }
  cuts[0] = 0;

  struct Partial {
    std::size_t anchor;
    std::vector<std::size_t> ones;
  };
  std::vector<std::vector<Partial>> partials(runs);
  parallel_for(runs, static_cast<unsigned>(runs), [&](std::size_t w) {
    const std::size_t run_begin = cuts[w];
    const std::size_t run_end = cuts[w + 1];
    if (run_begin == run_end) return;
    const obs::trace::TraceScope run_scope("decode/tile");
    // One accumulator over the partner range of the anchors the run
    // touches (contiguous: ranges are anchor-ordered).
    std::size_t lo = anchors.size();
    std::size_t hi = 0;
    for (std::size_t i = run_begin; i < run_end; ++i) {
      lo = std::min(lo, items[i].anchor);
      hi = std::max(hi, items[i].anchor);
    }
    const std::size_t base = acc_begin[lo];
    std::vector<std::size_t> ones(acc_begin[hi + 1] - base, 0);
    std::vector<std::uint8_t> touched(hi + 1 - lo, 0);
    for (std::size_t i = run_begin; i < run_end; ++i) {
      const Item& item = items[i];
      const SweepAnchor& anchor = anchors[item.anchor];
      table.or_popcount_cyclic_batch(
          anchor.words, item.word_begin, item.word_end, anchor.partners,
          anchor.partner_words, anchor.n_partners,
          ones.data() + (acc_begin[item.anchor] - base));
      touched[item.anchor - lo] = 1;
    }
    for (std::size_t a = lo; a <= hi; ++a) {
      if (touched[a - lo] == 0) continue;
      const std::size_t* acc = ones.data() + (acc_begin[a] - base);
      if (first_item[a] >= run_begin && last_item[a] < run_end) {
        write(a, acc);
      } else {
        partials[w].push_back(Partial{
            a, std::vector<std::size_t>(acc, acc + anchors[a].n_partners)});
      }
    }
  });

  // Split anchors: order every partial by anchor (stably, so each
  // anchor's pieces stay in worker order) and sum each anchor's run.
  std::vector<Partial*> pieces;
  for (std::vector<Partial>& worker_partials : partials) {
    for (Partial& part : worker_partials) pieces.push_back(&part);
  }
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Partial* x, const Partial* y) {
                     return x->anchor < y->anchor;
                   });
  for (std::size_t i = 0; i < pieces.size();) {
    std::vector<std::size_t>& sum = pieces[i]->ones;
    std::size_t j = i + 1;
    for (; j < pieces.size() && pieces[j]->anchor == pieces[i]->anchor; ++j) {
      for (std::size_t s = 0; s < sum.size(); ++s) sum[s] += pieces[j]->ones[s];
    }
    write(pieces[i]->anchor, sum.data());
    i = j;
  }
  return shape;
}

}  // namespace

BatchZeroCounts joint_zero_counts_batch(std::span<const BitArray* const> arrays,
                                        const BatchDecodeOptions& options,
                                        BatchDecodeStats* stats) {
  const std::size_t k = arrays.size();
  VLM_REQUIRE(k >= 2, "batch decode needs at least two arrays");
  BatchZeroCounts out = per_array_fields(arrays);

  // The one sort: order[q] is the array at position q. Stable, so size
  // ties keep index order and the lower index plays the smaller array.
  std::vector<std::uint32_t> order(k);
  for (std::uint32_t i = 0; i < k; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return out.bits[x] < out.bits[y];
                   });
  // Divisibility is transitive, so consecutive sizes dividing each other
  // makes every pair unfold-compatible — and a failing step is itself a
  // pair of the batch.
  for (std::size_t q = 1; q < k; ++q) {
    require_unfold_compatible(out.bits[order[q - 1]], out.bits[order[q]]);
  }
  // A multiple of the word size only divides into multiples of it, so
  // the arrays below one word are the first `sub_word` positions.
  std::size_t sub_word = 0;
  while (sub_word < k && out.bits[order[sub_word]] % BitArray::kWordBits != 0) {
    ++sub_word;
  }

  const unsigned workers =
      options.workers == 0 ? default_worker_count() : options.workers;
  // Every slot is written exactly once — by the fallback below or by the
  // sweep — so the counts skip the zero fill.
  out.ones_or.resize(k * (k - 1) / 2);
  if (sub_word > 0) {
    // Anchor q's pairs with the sub-word prefix: the per-pair
    // materializing fallback, bit for bit.
    parallel_for(k - 1, workers, [&](std::size_t i) {
      const std::size_t q = i + 1;
      const BitArray& large = *arrays[order[q]];
      for (std::size_t p = 0; p < std::min(q, sub_word); ++p) {
        out.ones_or[out.slot(order[p], order[q])] =
            large.size() - joint_zero_counts(*arrays[order[p]], large).zeros_or;
      }
    });
  }

  // Anchor q's partners are positions [sub_word, q): one K-entry array of
  // word pointers and word counts serves every anchor.
  std::vector<const std::uint64_t*> partner_ptrs(k);
  std::vector<std::size_t> partner_words(k);
  std::size_t fleet_words = 0;
  for (std::size_t q = 0; q < k; ++q) {
    partner_ptrs[q] = arrays[order[q]]->words().data();
    partner_words[q] = arrays[order[q]]->words().size();
    fleet_words += partner_words[q];
  }
  std::vector<SweepAnchor> anchors(k);
  for (std::size_t q = sub_word + 1; q < k; ++q) {
    anchors[q] = SweepAnchor{partner_ptrs[q], partner_words[q],
                             partner_ptrs.data() + sub_word,
                             partner_words.data() + sub_word, q - sub_word};
  }
  const SweepShape shape = sweep_anchors(
      anchors, fleet_words, k, options,
      [&](std::size_t q, const std::size_t* ones) {
        for (std::size_t p = sub_word; p < q; ++p) {
          out.ones_or[out.slot(order[p], order[q])] = ones[p - sub_word];
        }
      });

  if (stats != nullptr) {
    stats->tile_words = shape.tile_words;
    stats->tiles = shape.tiles;
    stats->fallback_pairs =
        sub_word * (sub_word - 1) / 2 + sub_word * (k - sub_word);
    // The word-aligned arrays each pair with every other one: k_w − 1
    // loads per array on the per-pair path, one in the sweep.
    const std::size_t word_aligned = k - sub_word;
    stats->dram_passes_saved =
        word_aligned >= 2 ? word_aligned * (word_aligned - 2) : 0;
  }
  return out;
}

BatchZeroCounts joint_zero_counts_batch(
    std::span<const BitArray* const> arrays,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
    const BatchDecodeOptions& options, BatchDecodeStats* stats) {
  const std::size_t k = arrays.size();
  BatchZeroCounts out = per_array_fields(arrays);
  out.ones_or.resize(pairs.size());

  // Pass 1: order every pair exactly as joint_zero_counts does (small =
  // first operand on size ties, so the anchor — the larger array — is
  // the second), validate unfold-compatibility up front, run the
  // sub-word fallback, and count each anchor's partners into
  // slot_begin[a + 1].
  std::vector<std::size_t> slot_begin(k + 1, 0);
  std::vector<std::size_t> pairs_touching(k, 0);
  std::size_t fallback_pairs = 0;
  const auto anchor_of = [&](std::size_t a, std::size_t b) {
    return out.bits[a] <= out.bits[b] ? b : a;
  };
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t a = pairs[p].first;
    const std::size_t b = pairs[p].second;
    VLM_REQUIRE(a < k && b < k && a != b,
                "batch decode pair indices must be distinct and in range");
    const std::size_t large = anchor_of(a, b);
    const std::size_t small = large == b ? a : b;
    require_unfold_compatible(out.bits[small], out.bits[large]);
    if (out.bits[small] % BitArray::kWordBits != 0) {
      // Sub-word arrays (sizing floor): a handful of bytes — reuse the
      // per-pair materializing fallback, bit for bit.
      out.ones_or[p] =
          out.bits[large] - joint_zero_counts(*arrays[a], *arrays[b]).zeros_or;
      ++fallback_pairs;
      continue;
    }
    ++slot_begin[large + 1];
    ++pairs_touching[a];
    ++pairs_touching[b];
  }

  // Pass 2: counting-sort placement. Anchor a's partners occupy slots
  // [slot_begin[a], slot_begin[a + 1]) in pair order, so one anchor tile
  // is swept against all of them in one kernel call and slot → pair
  // stays a lookup. Every slot is written exactly once below, so the
  // buffers skip the zero fill.
  for (std::size_t a = 0; a < k; ++a) slot_begin[a + 1] += slot_begin[a];
  const std::size_t slots = slot_begin[k];
  std::vector<std::size_t> cursor(slot_begin.begin(), slot_begin.end() - 1);
  UninitVector<const std::uint64_t*> partner_ptrs(slots);
  UninitVector<std::size_t> partner_words(slots);
  UninitVector<std::size_t> slot_pair(slots);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t a = pairs[p].first;
    const std::size_t b = pairs[p].second;
    const std::size_t large = anchor_of(a, b);
    const BitArray& small = *arrays[large == b ? a : b];
    if (small.size() % BitArray::kWordBits != 0) continue;
    const std::size_t slot = cursor[large]++;
    partner_ptrs[slot] = small.words().data();
    partner_words[slot] = small.words().size();
    slot_pair[slot] = p;
  }

  std::vector<SweepAnchor> anchors(k);
  std::size_t fleet_words = 0;
  for (std::size_t a = 0; a < k; ++a) {
    const std::span<const std::uint64_t> words = arrays[a]->words();
    fleet_words += words.size();
    anchors[a] = SweepAnchor{words.data(), words.size(),
                             partner_ptrs.data() + slot_begin[a],
                             partner_words.data() + slot_begin[a],
                             slot_begin[a + 1] - slot_begin[a]};
  }
  const SweepShape shape = sweep_anchors(
      anchors, fleet_words, k, options,
      [&](std::size_t a, const std::size_t* ones) {
        for (std::size_t j = 0; j < anchors[a].n_partners; ++j) {
          out.ones_or[slot_pair[slot_begin[a] + j]] = ones[j];
        }
      });

  if (stats != nullptr) {
    stats->tile_words = shape.tile_words;
    stats->tiles = shape.tiles;
    stats->fallback_pairs = fallback_pairs;
    stats->dram_passes_saved = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (pairs_touching[i] > 0) {
        stats->dram_passes_saved += pairs_touching[i] - 1;
      }
    }
  }
  return out;
}

BitArray BitArray::from_bytes(std::size_t bit_count,
                              std::span<const std::uint8_t> bytes) {
  VLM_REQUIRE(bit_count > 0, "bit array must have at least one bit");
  VLM_REQUIRE(bytes.size() == (bit_count + 7) / 8,
              "byte buffer does not match the declared bit count");
  // Trailing bits past bit_count (all in the final byte) must stay zero;
  // a buffer that sets them would silently corrupt zero counting.
  VLM_REQUIRE(bit_count % 8 == 0 || (bytes.back() >> (bit_count % 8)) == 0,
              "byte buffer sets bits past the declared bit count");
  BitArray out;
  out.bit_count_ = bit_count;
  out.words_.resize(word_count_for(bit_count));
  out.words_.back() = 0;  // the padding past the last byte
  const kernels::KernelTable& table = kernels::active();
  if constexpr (std::endian::native == std::endian::little) {
    // The bytes are the words' memory layout (see to_bytes): copy them in
    // L1-sized chunks and count each chunk while it is hot, so the buffer
    // is read once and the words are written once.
    constexpr std::size_t kChunkBytes = 4096;
    auto* dst = reinterpret_cast<std::uint8_t*>(out.words_.data());
    std::size_t ones = 0;
    for (std::size_t b = 0; b < bytes.size(); b += kChunkBytes) {
      const std::size_t len = std::min(bytes.size() - b, kChunkBytes);
      std::memcpy(dst + b, bytes.data() + b, len);
      ones += table.popcount(out.words_.data() + b / 8, (len + 7) / 8);
    }
    out.ones_ = ones;
  } else {
    std::fill(out.words_.begin(), out.words_.end(), 0);
    for (std::size_t b = 0; b < bytes.size(); ++b) {
      out.words_[b / 8] |= static_cast<std::uint64_t>(bytes[b]) << ((b % 8) * 8);
    }
    out.ones_ = table.popcount(out.words_.data(), out.words_.size());
  }
  return out;
}

}  // namespace vlm::common

// Synthetic city-scale workload: many RSUs with heterogeneous popularity.
//
// Models the situation the paper motivates with the NYSDOT report — major
// intersections see hundreds of thousands of vehicles/day while light
// ones see a few hundred. Each vehicle visits a small set of RSUs drawn
// from a Zipf-like popularity distribution, producing wildly unbalanced
// point volumes and a dense matrix of pairwise overlaps with exact ground
// truth.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/uninit.h"
#include "common/visited_mask.h"

namespace vlm::traffic {

struct MultiRsuConfig {
  std::size_t rsu_count = 32;
  std::uint64_t vehicle_count = 100'000;
  double zipf_exponent = 1.0;   // popularity skew; 0 = uniform
  std::uint32_t min_visits = 2; // RSUs per vehicle trip (inclusive range)
  std::uint32_t max_visits = 6;
  std::uint64_t seed = 1;
};

class MultiRsuWorkload {
 public:
  explicit MultiRsuWorkload(const MultiRsuConfig& config);

  const MultiRsuConfig& config() const { return config_; }

  // Vehicle `vehicle_index`'s visit list: distinct RSU indices, sorted
  // ascending. A pure function of (config, vehicle_index) — the draws
  // come from a counter-based splitmix64 stream seeded per vehicle at
  // mix64(seed ^ v) instead of one sequential generator — so any worker
  // can generate any vehicle independently and a parallel ingest over ANY
  // worker count sees vehicle-for-vehicle identical itineraries. `visited` is per-caller
  // dedup scratch sized rsu_count (keep one per worker thread and reuse
  // it across vehicles); `out` is cleared and refilled.
  void itinerary(std::uint64_t vehicle_index, common::VisitedMask& visited,
                 std::vector<std::uint32_t>& out) const;

  // Bulk form: the itineraries of every vehicle in [begin, end), CSR
  // layout — vehicle (begin + i)'s visits are positions[offsets[i]] ..
  // positions[offsets[i + 1]]. Exactly the per-vehicle itineraries
  // concatenated (same draws, same order); one call materializes a whole
  // ingest-worker slice without a function call per vehicle, which is
  // what the batch pipeline's materialize stage runs on.
  //
  // Unlike itinerary(), the draws are generated in bulk: the stream
  // bases and visit-count draws of the whole block run through the
  // dispatched encode_batch kernel, and the Zipf rank selections through
  // zipf_rank_runs — the run-expanded rank kernel that synthesizes each
  // vehicle's visit-draw stream positions in a cache-resident chunk
  // instead of materializing the whole block's state array (8 lanes of
  // the splitmix64 finalizer and the guide-table walk per iteration on
  // AVX-512) — with a scalar continuation for the rare vehicle whose
  // rejection run outlasts the pre-generated draws. The accept/reject
  // sequence is draw-for-draw the one sample_into consumes, so the
  // output is bit-identical to the per-vehicle path — the frozen-seed
  // goldens pin it.
  //
  // `positions` is an UninitVector: it is sized once per call (no
  // value-init memset over the block) and every slot in range is written
  // by the emission loop before anything reads it.
  //
  // `counts` is the per-RSU visit histogram of the block (size
  // rsu_count, counts[r] = tuples destined for RSU r), accumulated while
  // the positions are accepted — the batch ingest sizes its SoA buckets
  // from it without a second pass over the CSR.
  void itineraries(std::uint64_t begin, std::uint64_t end,
                   common::VisitedMask& visited,
                   common::UninitVector<std::uint32_t>& positions,
                   std::vector<std::uint64_t>& offsets,
                   std::vector<std::uint64_t>& counts) const;

  // Streams each vehicle's visit list (distinct RSU indices, sorted), in
  // vehicle order, via itinerary(). Deterministic for a given config.
  // While streaming, ground-truth counters are accumulated and are
  // available afterwards.
  void for_each_vehicle(
      const std::function<void(std::uint64_t vehicle_index,
                               std::span<const std::uint32_t> rsus)>& visit);

  // Ground truth collected by the last for_each_vehicle run.
  const std::vector<std::uint64_t>& node_volumes() const { return volumes_; }
  std::uint64_t pair_volume(std::uint32_t a, std::uint32_t b) const;

 private:
  // Appends vehicle_index's sorted visit list to `out` (no clear) — the
  // shared sampling core of itinerary() and itineraries().
  void sample_into(std::uint64_t vehicle_index, common::VisitedMask& visited,
                   std::vector<std::uint32_t>& out) const;

  MultiRsuConfig config_;
  std::vector<double> popularity_cdf_;
  // The CDF scaled to 2^53 for the draw loop: cdf_thresholds_[r] is the
  // smallest 53-bit draw d with popularity_cdf_[r] < d * 2^-53, so the
  // selected rank for a draw d — lower_bound(popularity_cdf_, d * 2^-53)
  // — is the first r with cdf_thresholds_[r] > d, found with integer
  // compares only (no double converts in the hot path).
  std::vector<std::uint64_t> cdf_thresholds_;
  // Guide table for that lookup: zipf_guide_[j] is a lower bound on the
  // selected rank of every draw in bucket j (buckets split the 53-bit
  // draw space evenly), so the scan starts at
  // zipf_guide_[d * buckets >> 53] and almost always finishes in one
  // step. Pure acceleration — the selected rank is unchanged.
  std::vector<std::uint32_t> zipf_guide_;
  std::vector<std::uint64_t> volumes_;
  std::vector<std::uint64_t> pair_counts_;  // upper-triangular matrix
};

}  // namespace vlm::traffic

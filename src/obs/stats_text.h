// Human-readable stats lines shared by the CLI tools.
//
// vlm_simulate and vlm_analyze used to carry diverging printf copies of
// these; the snapshot-view structs (DecodeStats / IngestStats /
// PipelineStats) now format in exactly one place. Header-only on purpose:
// it sits above vlm_core and vlm_vcps in the layer order, so making it a
// library would invert the obs <- common <- core <- vcps dependency
// chain. Only the tools and benches include it.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

#include "core/od_matrix.h"
#include "obs/health.h"
#include "vcps/central_server.h"
#include "vcps/simulation.h"

namespace vlm::obs {

namespace detail {
template <typename... Args>
std::string format_line(const char* format, Args... args) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer, format, args...);
  return buffer;
}
}  // namespace detail

// "ingest: ..." + per-stage + "ingest pool: ..." lines for one
// drive_vehicles call.
inline std::string format_ingest_stats(const vcps::IngestStats& stats) {
  std::string out = detail::format_line(
      "ingest: %u workers, %s kernels, %.1f ms, %.0f vehicles/s\n",
      stats.workers, stats.kernel_isa, stats.seconds * 1e3,
      stats.vehicles_per_second());
  out += detail::format_line(
      "ingest stages (cpu ms across workers): materialize %.1f, hash "
      "%.1f, channel %.1f, scatter %.1f\n",
      stats.materialize_seconds * 1e3, stats.hash_seconds * 1e3,
      stats.channel_seconds * 1e3, stats.scatter_seconds * 1e3);
  out += detail::format_line(
      "ingest pool: %llu dispatch(es) this run, %llu lifetime (threads "
      "reused, not respawned)\n",
      static_cast<unsigned long long>(stats.pool_dispatches),
      static_cast<unsigned long long>(stats.pool_lifetime_dispatches));
  return out;
}

// "decode: ..." line plus the blocking and pool detail lines for one
// estimate_od_matrix run.
inline std::string format_decode_stats(const core::DecodeStats& stats) {
  std::string out = detail::format_line(
      "decode: %zu pairs on %u worker(s), %s kernels, %s path, in "
      "%.1f ms — %.0f pairs/s, %.0f MiB/s scanned\n",
      stats.pairs_decoded, stats.workers, stats.kernel_isa, stats.path,
      stats.wall_seconds * 1e3, stats.pairs_per_second(),
      stats.mib_per_second());
  if (std::string_view(stats.path) == "pruned") {
    out += detail::format_line(
        "decode pruning: %zu pair(s) skipped, %zu survived (stride %zu, "
        "%s matrix) — prune %.1f ms, sweep %.1f ms, estimate %.1f ms\n",
        stats.pairs_pruned, stats.pairs_survived, stats.sample_stride,
        stats.storage, stats.prune_seconds * 1e3, stats.sweep_seconds * 1e3,
        stats.estimate_seconds * 1e3);
  }
  if (stats.tile_words > 0) {
    out += detail::format_line(
        "decode blocking: %zu-word tiles, %zu full-array DRAM passes "
        "saved\n",
        stats.tile_words, stats.dram_passes_saved);
  }
  out += detail::format_line(
      "decode pool: %llu dispatch(es) this run to %u pooled thread(s), "
      "%llu lifetime (reused, not respawned)\n",
      static_cast<unsigned long long>(stats.pool_dispatches),
      stats.pool_threads,
      static_cast<unsigned long long>(stats.pool_lifetime_dispatches));
  return out;
}

// "pipeline [scheme]: ..." line for one period's server-side counters,
// plus the decode-time health verdicts when a matrix was estimated.
inline std::string format_pipeline_stats(std::string_view scheme_name,
                                         const vcps::PipelineStats& stats) {
  std::string out = detail::format_line(
      "pipeline [%.*s]: %zu reports ingested, %zu quarantined, ingest "
      "%.1f ms\n",
      static_cast<int>(scheme_name.size()), scheme_name.data(),
      stats.reports_ingested, stats.reports_quarantined,
      stats.ingest_seconds * 1e3);
  if (stats.health.rsus_assessed > 0) {
    out += health::format_health_summary(stats.health);
  }
  return out;
}

}  // namespace vlm::obs

// Deterministic parallel-for over an index range, backed by a persistent
// worker pool.
//
// Monte-Carlo sweeps, the parallel ingest engine, and the tiled decode all
// fan independent, per-index work across threads; their results must not
// depend on which thread ran what. These helpers slice [0, count) across
// a fixed number of logical workers with boundaries that depend only on
// (count, workers) — never on scheduling — so any worker count gives
// bit-identical output.
//
// Threads are NOT spawned per call: every multi-worker region runs on the
// process-wide WorkerPool, whose threads are created once and reused. A
// multi-period pipeline (ingest + decode per period) therefore pays the
// thread spawn/join cost exactly once per process instead of once per
// parallel region.
//
// Exceptions: the first exception thrown by any worker is rethrown on the
// calling thread after the region completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace vlm::common {

// Number of workers the machine suggests (hardware_concurrency, floored
// at 1).
unsigned default_worker_count();

// CLI-facing resolution of a requested worker count: nonzero passes
// through, 0 (the "unset" flag value) maps to default_worker_count()
// with a warn-once stderr note saying what was picked — so a user who
// left --workers unset sees the machine-wide default being applied
// instead of silently getting some implicit count (same warn-once style
// as the VLM_KERNELS fallback).
unsigned resolve_worker_count(unsigned requested);

// Runs body(i) for every i in [0, count), distributed over `workers`
// threads (contiguous slices). workers == 1 runs inline.
void parallel_for(std::size_t count, unsigned workers,
                  const std::function<void(std::size_t)>& body);

// Sharded-aggregation primitive: covers [0, count) with at most `workers`
// disjoint contiguous slices and runs body(worker, begin, end) for each.
// The worker index is dense in [0, used) where used = min(workers, count),
// so callers can pre-size one shard of local state per worker and merge
// after the call returns (workers == 1 runs inline). Slice boundaries
// depend only on (count, workers), never on scheduling.
void parallel_slices(
    std::size_t count, unsigned workers,
    const std::function<void(unsigned worker, std::size_t begin,
                             std::size_t end)>& body);

// Process-wide persistent thread pool behind parallel_for/parallel_slices.
//
// The pool owns hardware_concurrency − 1 threads (possibly zero on a
// single-core host); the calling thread always participates in draining
// the region, so a region with more logical workers than pool threads
// still completes — logical worker indices are task slots, not thread
// identities, which is what keeps the contiguous-slice determinism
// contract independent of the pool size. Regions are serialized: one runs
// at a time, and a region launched from inside a pool task (nested
// parallelism) runs inline on the calling thread rather than deadlocking.
class WorkerPool {
 public:
  // The singleton every parallel region routes through. Threads are
  // started lazily on first use and joined at process exit.
  static WorkerPool& instance();

  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Persistent threads owned by the pool (callers add themselves, so the
  // effective concurrency of a region is thread_count() + 1).
  unsigned thread_count() const;

  // Parallel regions served since process start — the pool-reuse counter
  // surfaced by DecodeStats/IngestStats: it keeps growing across decode
  // calls and ingest periods while thread_count() stays constant.
  std::uint64_t dispatch_count() const;

  // Runs task(0), ..., task(used − 1), each exactly once, on the pool's
  // threads plus the calling thread; returns when all have completed and
  // rethrows the first captured exception. Safe to call with used == 0
  // (no-op) and from inside a pool task (runs inline, serially).
  void run(unsigned used, const std::function<void(unsigned)>& task);

 private:
  WorkerPool();

  struct State;
  State* state_;  // pimpl: keeps <thread>/<mutex> out of this header
};

}  // namespace vlm::common

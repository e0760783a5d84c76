#pragma once
// Block-granular parallel execution runtime: SIMT grid launches
// (parallel_launch), flat element loops (parallel_for), the batched SoA
// chunk driver (batch_apply) and the ordered QMC reduction (ordered_chunks),
// scheduled across the shared ThreadPool.
//
// Determinism contract: results and merged performance counters are
// bit-identical at any thread count. The rule lives in two places:
// parallel_for (which parallel_launch and batch_apply run through) and
// ordered_chunks label work, and detail::run_sharded shards it.
//  - Work items are independent (no cross-block data flow within one
//    launch, disjoint writes per element or chunk), so executing them
//    concurrently cannot change any output value.
//  - Imprecise dispatch keeps working off-main-thread: every shard runs
//    under its own thread-local gpu::FpContext cloned from the caller's
//    active IhwConfig (and open circuit breakers), and the per-shard
//    PerfCounters and fault::FaultCounters are merged into the caller's
//    context with operator+= in ascending shard order -- never in
//    completion order -- once the region has drained.
//  - Fault injection and the guard stay deterministic under sharding: every
//    unit of work is labelled with its schedule-invariant epoch (linear
//    block / element / chunk index) via gpu::run_epoch, the counter-based
//    fault stream hashes (seed, class, epoch, op index), and the run-level
//    breaker advances only at region boundaries (gpu::finish_launch) where
//    serial and sharded executions agree on the merged trip counts.
//  - One shard (`threads == 1`, or at most one work item) and any region
//    nested inside a shard run inline on the calling thread, in index
//    order, under the caller's context.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "gpu/context.h"
#include "gpu/epoch.h"
#include "gpu/simt.h"

namespace ihw::common {
class Args;
}

namespace ihw::runtime {

/// Hardware concurrency, clamped to >= 1.
int hardware_threads();

/// The process-wide default worker count used when an entry point is called
/// with `threads == 0`. Starts at hardware_threads().
int default_threads();

/// Sets the default worker count; n <= 0 resets to hardware_threads().
void set_default_threads(int n);

/// RAII override of the default worker count (tests, nested tools).
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : prev_(default_threads()) {
    set_default_threads(n);
  }
  ~ScopedThreads() { set_default_threads(prev_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int prev_;
};

/// Reads `--threads=N` (0 or absent = hardware concurrency), installs it as
/// the process default, and returns the resolved count for reporting.
int configure_threads_from_args(const common::Args& args);

/// Runs task(i) for i in [0, n) across the pool with dynamic (work-stealing
/// queue) scheduling -- the driver for coarse, heterogeneous, independent
/// jobs like sweep config points, where static contiguous sharding would
/// leave workers idle behind one slow shard. Unlike parallel_for, tasks are
/// NOT epoch-labelled: each task is expected to build its own FpContext
/// (apps/runner.h run_with_config / run_guarded). Tasks started from a pool
/// worker degrade any nested parallel region to inline serial execution, so
/// a task's result never depends on the thread count. Every task runs to
/// completion regardless of sibling failures (none cancels another), and
/// instead of rethrowing, each task's exception is captured into slot i of
/// the returned vector (nullptr for tasks that returned normally). The sweep
/// grid driver builds its per-point failure containment (FailPolicy::isolate,
/// DESIGN.md §12) on this.
std::vector<std::exception_ptr> parallel_tasks_capture(
    std::size_t n, const std::function<void(std::size_t)>& task,
    int threads = 0);

namespace detail {

/// Number of shards for `work` independent items under a requested thread
/// count (0 = default): never more shards than items, never fewer than 1.
int resolve_shards(int threads, std::uint64_t work);

/// Contiguous range of shard `s` when `n` items are split over `shards`.
inline std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t n,
                                                           int shards, int s) {
  const std::uint64_t k = static_cast<std::uint64_t>(shards);
  const std::uint64_t i = static_cast<std::uint64_t>(s);
  return {n * i / k, n * (i + 1) / k};
}

/// Runs body(s) for s in [0, shards): shard 0 inline on the calling thread,
/// the rest on the global pool. If the caller has an active FpContext, each
/// shard executes under a fresh FpContext cloned from the caller's config,
/// and shard counters merge into the caller's context in shard order after
/// every shard has finished. The first exception thrown by any shard is
/// rethrown on the calling thread. A single shard, and every call nested in
/// a shard (a shard spawning a parallel region), runs inline on the calling
/// thread in shard order under the caller's context -- the serial path of
/// every entry point, and no pool deadlock.
void run_sharded(int shards, const std::function<void(int)>& body);

inline gpu::Dim3 delinearize_block(const gpu::Dim3& grid, std::uint64_t lb) {
  const std::uint64_t gx = grid.x, gy = grid.y;
  return gpu::Dim3{static_cast<unsigned>(lb % gx),
                   static_cast<unsigned>((lb / gx) % gy),
                   static_cast<unsigned>(lb / (gx * gy))};
}

}  // namespace detail

/// Flat data-parallel loop: body(i) for i in [0, n), contiguous index ranges
/// per worker, each index under its epoch label i. This is the one loop
/// that shards work and labels epochs; parallel_launch and batch_apply run
/// through it. Iterations must be independent (disjoint writes) for the
/// determinism contract to hold -- the block-independence rule, at element
/// granularity.
template <typename Body>
void parallel_for(std::uint64_t n, Body&& body, int threads = 0) {
  const int shards = detail::resolve_shards(threads, n);
  detail::run_sharded(shards, [&](int s) {
    const auto [i0, i1] = detail::shard_range(n, shards, s);
    for (std::uint64_t i = i0; i < i1; ++i)
      gpu::run_epoch(i, [&] { body(i); });
  });
  gpu::finish_launch();
}

/// kernel(ThreadCtx) for every thread of the grid, as a CUDA launch: a
/// parallel_for over linear block indices (epoch = linear block index), the
/// threads of one block in x-fastest order on one worker.
template <typename K>
void parallel_launch(gpu::Dim3 grid, gpu::Dim3 block, K&& kernel,
                     int threads = 0) {
  parallel_for(
      grid.count(),
      [&](std::uint64_t lb) {
        gpu::ThreadCtx t;
        t.grid_dim = grid;
        t.block_dim = block;
        t.block_idx = detail::delinearize_block(grid, lb);
        for (unsigned tz = 0; tz < block.z; ++tz)
          for (unsigned ty = 0; ty < block.y; ++ty)
            for (unsigned tx = 0; tx < block.x; ++tx) {
              t.thread_idx = {tx, ty, tz};
              kernel(t);
            }
      },
      threads);
}

/// Chunked driver for the batched SoA path (gpu/batch.h): a parallel_for
/// over the fixed-size chunks of [0, n) (epoch = chunk index) running
/// body(begin, end), which is expected to issue span-level batch_* calls.
/// The chunk decomposition depends only on `chunk`, never on the thread
/// count, so epoch labels (and with them the fault stream and guard/breaker
/// decisions) are identical at any --threads=N. Chunks must write disjoint
/// outputs, the same independence rule as parallel_for.
template <typename Body>
void batch_apply(std::uint64_t n, std::uint64_t chunk, Body&& body,
                 int threads = 0) {
  if (chunk == 0) chunk = 1;
  parallel_for(
      (n + chunk - 1) / chunk,
      [&](std::uint64_t c) { body(c * chunk, std::min(n, (c + 1) * chunk)); },
      threads);
}

/// Deterministic ordered reduction for stateful consumers (the QMC error
/// sweeps): splits [0, n) into fixed-size chunks, evaluates
/// produce(chunk_begin, chunk_end) -> T concurrently in waves, and feeds each
/// result to consume(T&&) on the calling thread in ascending chunk order.
/// The chunk decomposition depends only on `chunk`, never on the thread
/// count, so a sequentially-dependent consumer (streaming statistics, PMF
/// accumulation) observes the exact stream the serial loop would produce.
template <typename T, typename Produce, typename Consume>
void ordered_chunks(std::uint64_t n, std::uint64_t chunk, Produce&& produce,
                    Consume&& consume, int threads = 0) {
  if (chunk == 0) chunk = 1;
  const std::uint64_t nchunks = (n + chunk - 1) / chunk;
  const int shards = detail::resolve_shards(threads, nchunks);
  std::vector<T> wave(static_cast<std::size_t>(shards));
  for (std::uint64_t c0 = 0; c0 < nchunks; c0 += static_cast<std::uint64_t>(shards)) {
    const int live = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(shards), nchunks - c0));
    detail::run_sharded(live, [&](int s) {
      const std::uint64_t c = c0 + static_cast<std::uint64_t>(s);
      gpu::run_epoch(c, [&] {
        wave[static_cast<std::size_t>(s)] =
            produce(c * chunk, std::min(n, (c + 1) * chunk));
      });
    });
    for (int s = 0; s < live; ++s)
      consume(std::move(wave[static_cast<std::size_t>(s)]));
  }
  gpu::finish_launch();
}

}  // namespace ihw::runtime

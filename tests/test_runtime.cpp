// Tests for the parallel execution runtime: thread pool, block-granular
// scheduler, the determinism contract (results and merged counters
// bit-identical to the serial path at any thread count), and the sharded
// counter merge.
#include "apps/hotspot.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "error/characterize.h"
#include "fault/spec.h"
#include "gpu/context.h"
#include "gpu/epoch.h"
#include "gpu/simreal.h"
#include "gpu/simt.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <stdexcept>
#include <vector>

namespace ihw::runtime {
namespace {

using gpu::Dim3;
using gpu::FpContext;
using gpu::OpClass;
using gpu::PerfCounters;
using gpu::ScopedContext;
using gpu::SimFloat;

bool bit_identical(const common::GridF& a, const common::GridF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ThreadPool, LazyStartAndGrowth) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), 0);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.size(), 3);
  pool.ensure_workers(2);  // never shrinks
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, ExecutesSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::atomic<int> done{0};
  for (int i = 1; i <= 100; ++i)
    pool.submit([&, i] {
      sum += i;
      ++done;
    });
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5, 8}) {
    std::vector<int> hits(1000, 0);
    parallel_for(hits.size(), [&](std::uint64_t i) { ++hits[i]; }, threads);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << "threads=" << threads;
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::uint64_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

// --- ordered_chunks ----------------------------------------------------------

// Consumes (begin, end) of every chunk in ascending order, whatever the
// thread count, including n == 0, n below one chunk and a partial last chunk.
TEST(OrderedChunks, ConsumesEveryChunkInAscendingOrder) {
  constexpr std::uint64_t kChunk = 8;
  for (const std::uint64_t n : {0u, 5u, 8u, 37u, 64u}) {
    for (int threads = 1; threads <= 4; ++threads) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
      ordered_chunks<std::pair<std::uint64_t, std::uint64_t>>(
          n, kChunk,
          [](std::uint64_t b, std::uint64_t e) { return std::make_pair(b, e); },
          [&](std::pair<std::uint64_t, std::uint64_t>&& r) {
            seen.push_back(r);
          },
          threads);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ASSERT_EQ(seen.size(), (n + kChunk - 1) / kChunk);
      for (std::size_t c = 0; c < seen.size(); ++c) {
        EXPECT_EQ(seen[c].first, c * kChunk);
        EXPECT_EQ(seen[c].second, std::min<std::uint64_t>(n, (c + 1) * kChunk));
      }
    }
  }
}

TEST(OrderedChunks, RethrowsProducerExceptionOnCaller) {
  for (int threads : {1, 4}) {
    int consumed = 0;
    EXPECT_THROW(ordered_chunks<int>(
                     100, 10,
                     [](std::uint64_t b, std::uint64_t) {
                       if (b == 30) throw std::runtime_error("boom");
                       return 0;
                     },
                     [&](int&&) { ++consumed; }, threads),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_LE(consumed, 3) << "no chunk after the throwing one is consumed";
  }
}

// --- epoch labels ------------------------------------------------------------

// Every work item runs under its schedule-invariant epoch label. The fault
// stream hashes (seed, class, epoch, op index), so under a 0.5 Mul fault rate
// the multiplies of work item k pin the label they ran under: they must match
// the same multiplies run under gpu::run_epoch(k) in a fresh context.

IhwConfig half_faulted_mul() {
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults[fault::UnitClass::Mul].rate = 0.5;
  return cfg;
}

constexpr int kItemOps = 32;
constexpr std::uint64_t kItems = 11;

// Multiply i of work item k.
float item_mul(std::uint64_t k, int i) {
  return (SimFloat(1.5f + static_cast<float>(i)) *
          SimFloat(1.25f + static_cast<float>(k)))
      .value();
}

std::vector<float> item_muls(std::uint64_t k) {
  std::vector<float> v;
  for (int i = 0; i < kItemOps; ++i) v.push_back(item_mul(k, i));
  return v;
}

// item_muls(k) for k in [0, n), each under gpu::run_epoch(k) in a fresh
// context.
std::vector<std::vector<float>> muls_by_epoch(std::uint64_t n) {
  std::vector<std::vector<float>> want(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    FpContext ctx(half_faulted_mul());
    ScopedContext scope(ctx);
    gpu::run_epoch(k, [&] { want[k] = item_muls(k); });
  }
  // Two epochs whose streams coincide would make the check blind.
  FpContext ctx(half_faulted_mul());
  ScopedContext scope(ctx);
  std::vector<float> epoch0;
  gpu::run_epoch(0, [&] { epoch0 = item_muls(1); });
  EXPECT_NE(epoch0, want[1]);
  return want;
}

TEST(ParallelFor, EpochOfEachIndexIsTheIndex) {
  const auto want = muls_by_epoch(kItems);
  for (int threads = 1; threads <= 4; ++threads) {
    FpContext ctx(half_faulted_mul());
    ScopedContext scope(ctx);
    std::vector<std::vector<float>> got(kItems);
    parallel_for(
        kItems, [&](std::uint64_t k) { got[k] = item_muls(k); }, threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(BatchApply, EpochOfEachChunkIsItsIndex) {
  constexpr std::uint64_t kChunk = 3;
  const auto want = muls_by_epoch(kItems);
  for (int threads = 1; threads <= 4; ++threads) {
    FpContext ctx(half_faulted_mul());
    ScopedContext scope(ctx);
    std::vector<std::vector<float>> got(kItems);
    // A partial last chunk: kItems chunks all the same.
    batch_apply(
        kItems * kChunk - 1, kChunk,
        [&](std::uint64_t b, std::uint64_t) {
          got[b / kChunk] = item_muls(b / kChunk);
        },
        threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

// Thread t of block b issues multiplies [8t, 8t + 8) of work item b, so the
// threads of one block, run in x-fastest order, issue item_muls(b) in order.
TEST(ParallelLaunch, EpochOfEachBlockIsItsLinearIndex) {
  const Dim3 grid(3, 2, 2), block(2, 2);
  constexpr int kPerThread = kItemOps / 4;
  const auto want = muls_by_epoch(grid.count());
  for (int threads = 1; threads <= 4; ++threads) {
    FpContext ctx(half_faulted_mul());
    ScopedContext scope(ctx);
    std::vector<std::vector<float>> got(grid.count(),
                                        std::vector<float>(kItemOps));
    parallel_launch(
        grid, block,
        [&](const gpu::ThreadCtx& t) {
          const std::uint64_t b =
              (t.block_idx.z * grid.y + t.block_idx.y) * grid.x +
              t.block_idx.x;
          for (int i = 0; i < kPerThread; ++i) {
            const int op = static_cast<int>(t.linear_tid()) * kPerThread + i;
            got[b][static_cast<std::size_t>(op)] = item_mul(b, op);
          }
        },
        threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(OrderedChunks, EpochOfEachChunkIsItsIndex) {
  const auto want = muls_by_epoch(kItems);
  for (int threads = 1; threads <= 4; ++threads) {
    FpContext ctx(half_faulted_mul());
    ScopedContext scope(ctx);
    std::vector<std::vector<float>> got;
    ordered_chunks<std::vector<float>>(
        kItems, 1, [&](std::uint64_t b, std::uint64_t) { return item_muls(b); },
        [&](std::vector<float>&& v) { got.push_back(std::move(v)); }, threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(ParallelLaunch, MatchesSerialLaunchOutput) {
  const Dim3 grid(7, 5, 2), block(4, 3, 2);
  const std::uint64_t cells = grid.count() * block.count();
  std::vector<std::uint64_t> want(cells);
  for (std::uint64_t b = 0; b < grid.count(); ++b)
    for (std::uint64_t tid = 0; tid < block.count(); ++tid)
      want[b * block.count() + tid] = b * 1000 + tid;
  for (int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> par(cells, 0);
    parallel_launch(
        grid, block,
        [&](const gpu::ThreadCtx& t) {
          const std::uint64_t b =
              (t.block_idx.z * grid.y + t.block_idx.y) * grid.x +
              t.block_idx.x;
          par[b * block.count() + t.linear_tid()] = b * 1000 + t.linear_tid();
        },
        threads);
    EXPECT_EQ(want, par) << "threads=" << threads;
  }
}

// Sharded counters merged in worker order must equal a single context
// counting everything (shard-then-merge == single-context property).
TEST(Counters, ShardThenMergeEqualsSingleContext) {
  constexpr int kOps = 1000;
  auto workload = [](std::uint64_t i) {
    SimFloat a(1.5f + static_cast<float>(i % 7)), b(2.5f);
    volatile float sink = (a * b + a).value();
    (void)sink;
    if (i % 3 == 0) {
      volatile float s2 = rcp(b).value();
      (void)s2;
    }
  };

  FpContext single(IhwConfig::precise());
  {
    ScopedContext scope(single);
    for (std::uint64_t i = 0; i < kOps; ++i) workload(i);
  }

  for (int threads : {2, 4, 8}) {
    FpContext sharded(IhwConfig::precise());
    {
      ScopedContext scope(sharded);
      parallel_for(kOps, workload, threads);
    }
    EXPECT_EQ(single.counters().counts, sharded.counters().counts)
        << "threads=" << threads;
  }
}

// The core determinism guarantee for HotSpot: output buffers and merged
// PerfCounters at 1, 2, and 8 threads are bit-identical to the serial path.
TEST(Determinism, HotspotBitIdenticalAcrossThreadCounts) {
  apps::HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 4;
  p.steady_init = false;  // keep the test fast; the kernel path is the same
  const auto input = make_hotspot_input(p, 7);
  const auto cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  PerfCounters ref_counters;
  {
    ScopedThreads serial(1);
    ref_counters = apps::run_with_config(cfg, [&] {
      ref = apps::run_hotspot<SimFloat>(p, input);
    });
  }

  for (int threads : {2, 8}) {
    ScopedThreads pin(threads);
    common::GridF out;
    PerfCounters c = apps::run_with_config(cfg, [&] {
      out = apps::run_hotspot<SimFloat>(p, input);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_counters.counts, c.counts) << "threads=" << threads;
  }
}

// Fault injection + guard preserve the determinism contract: the injector is
// a pure hash of (seed, class, epoch, op index) and the breaker only opens at
// launch boundaries, so outputs, PerfCounters, AND FaultCounters are
// bit-identical to the serial path at any thread count.
TEST(Determinism, FaultedHotspotBitIdenticalAcrossThreadCounts) {
  apps::HotspotParams p;
  p.rows = p.cols = 64;
  p.iterations = 4;
  p.steady_init = false;
  const auto input = make_hotspot_input(p, 7);
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = fault::FaultConfig::uniform(1e-3);
  cfg.guard.enabled = true;

  common::GridF ref;
  apps::GuardedRunResult ref_run;
  {
    ScopedThreads serial(1);
    ref_run = apps::run_guarded(cfg, [&] {
      ref = apps::run_hotspot<SimFloat>(p, input);
    });
  }
  // The faulted config actually exercises the injector and the guard.
  EXPECT_GT(ref_run.faults.total_injected(), 0u);
  EXPECT_GT(ref_run.faults.total_trips(), 0u);

  for (int threads : {2, 8}) {
    ScopedThreads pin(threads);
    common::GridF out;
    const auto run = apps::run_guarded(cfg, [&] {
      out = apps::run_hotspot<SimFloat>(p, input);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_run.perf.counts, run.perf.counts) << "threads=" << threads;
    EXPECT_EQ(ref_run.faults.injected, run.faults.injected)
        << "threads=" << threads;
    EXPECT_EQ(ref_run.faults.guard_trips, run.faults.guard_trips);
    EXPECT_EQ(ref_run.faults.degraded_epochs, run.faults.degraded_epochs);
    EXPECT_EQ(ref_run.faults.run_degradations, run.faults.run_degradations);
    EXPECT_EQ(ref_run.faults.retried_epochs, run.faults.retried_epochs);
  }
}

TEST(Determinism, SradBitIdenticalAcrossThreadCounts) {
  apps::SradParams p;
  p.rows = p.cols = 64;
  p.roi_r0 = 2;
  p.roi_c0 = 2;
  p.roi_r1 = 30;
  p.roi_c1 = 30;
  p.iterations = 3;
  const auto input = make_srad_input(p, 11);
  const auto cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  PerfCounters ref_counters;
  {
    ScopedThreads serial(1);
    ref_counters = apps::run_with_config(cfg, [&] {
      ref = apps::run_srad<SimFloat>(p, input.image);
    });
  }

  for (int threads : {2, 8}) {
    ScopedThreads pin(threads);
    common::GridF out;
    PerfCounters c = apps::run_with_config(cfg, [&] {
      out = apps::run_srad<SimFloat>(p, input.image);
    });
    EXPECT_TRUE(bit_identical(ref, out)) << "threads=" << threads;
    EXPECT_EQ(ref_counters.counts, c.counts) << "threads=" << threads;
  }
}

// The chunked QMC sweep feeds its streaming statistics in sample order, so
// the characterization result cannot depend on the thread count either.
TEST(Determinism, CharacterizationSweepThreadInvariant) {
  ScopedThreads serial(1);
  const auto ref = error::characterize32(error::UnitKind::FpMul, 0, 100000);
  for (int threads : {2, 8}) {
    ScopedThreads scoped(threads);
    const auto out = error::characterize32(error::UnitKind::FpMul, 0, 100000);
    EXPECT_EQ(ref.stats.samples(), out.stats.samples());
    EXPECT_EQ(ref.stats.errors(), out.stats.errors());
    // Bit-level: the doubles must match exactly, not approximately.
    EXPECT_EQ(ref.stats.mean_rel(), out.stats.mean_rel());
    EXPECT_EQ(ref.stats.max_rel(), out.stats.max_rel());
    EXPECT_EQ(ref.stats.med(), out.stats.med());
    EXPECT_EQ(ref.pmf.error_rate(), out.pmf.error_rate());
    for (int b = ref.pmf.min_bucket(); b <= ref.pmf.max_bucket(); ++b)
      ASSERT_EQ(ref.pmf.probability(b), out.pmf.probability(b)) << "bucket " << b;
  }
}

// --- nested regions ----------------------------------------------------------

// Every entry point once, for outer work item k, at the default worker
// count; returns what the regions wrote, in index order.
std::vector<float> every_entry_point(std::uint64_t k) {
  constexpr std::uint64_t kN = 24;
  std::vector<float> out(4 * kN);
  parallel_for(kN, [&](std::uint64_t i) {
    out[i] = item_mul(k, static_cast<int>(i));
  });
  batch_apply(kN, 5, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i)
      out[kN + i] = item_mul(k + 1, static_cast<int>(i));
  });
  parallel_launch(Dim3(3, 2), Dim3(4), [&](const gpu::ThreadCtx& t) {
    const std::uint64_t i =
        (t.block_idx.y * 3 + t.block_idx.x) * 4 + t.thread_idx.x;
    out[2 * kN + i] = item_mul(k + 2, static_cast<int>(i));
  });
  std::uint64_t next = 3 * kN;
  ordered_chunks<std::vector<float>>(
      kN, 5,
      [&](std::uint64_t b, std::uint64_t e) {
        std::vector<float> v;
        for (std::uint64_t i = b; i < e; ++i)
          v.push_back(item_mul(k + 3, static_cast<int>(i)));
        return v;
      },
      [&](std::vector<float>&& v) {
        for (float x : v) out[next++] = x;
      });
  return out;
}

bool same_bits(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)))
      return false;
  return true;
}

void expect_same_run(const apps::GuardedRunResult& a,
                     const apps::GuardedRunResult& b) {
  EXPECT_EQ(a.perf.counts, b.perf.counts);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.guard_trips, b.faults.guard_trips);
  EXPECT_EQ(a.faults.degraded_epochs, b.faults.degraded_epochs);
  EXPECT_EQ(a.faults.run_degradations, b.faults.run_degradations);
  EXPECT_EQ(a.faults.retried_epochs, b.faults.retried_epochs);
  EXPECT_EQ(a.faults.nonfinite_flags, b.faults.nonfinite_flags);
}

// A region nested in a parallel_tasks_capture task or in a parallel_for body
// runs inline on its shard, in index order (detail::run_sharded). Under a
// faulted, guarded config every entry point called there gives the outputs,
// PerfCounters and FaultCounters of the --threads=1 run. The run trip limit
// is low enough that the run-level breaker opens: a nested region must not
// open it early on the caller's context at one shard (gpu::finish_launch).
TEST(Nesting, RegionsInsideTasksAndParallelForMatchSerial) {
  IhwConfig cfg = half_faulted_mul();
  cfg.guard.enabled = true;
  cfg.guard.run_trip_limit = 16;
  constexpr std::size_t kOuter = 6;
  struct Run {
    std::vector<std::vector<float>> task_out, for_out;
    std::vector<apps::GuardedRunResult> task_runs;
    apps::GuardedRunResult for_run;
  };
  auto run = [&](int threads) {
    ScopedThreads pin(threads);
    Run r;
    r.task_out.resize(kOuter);
    r.task_runs.resize(kOuter);
    r.for_out.resize(kOuter);
    const auto errors = parallel_tasks_capture(kOuter, [&](std::size_t k) {
      r.task_runs[k] = apps::run_guarded(
          cfg, [&] { r.task_out[k] = every_entry_point(k); });
    });
    for (const auto& e : errors) EXPECT_FALSE(e);
    r.for_run = apps::run_guarded(cfg, [&] {
      parallel_for(kOuter, [&](std::uint64_t k) {
        r.for_out[k] = every_entry_point(k);
      });
    });
    return r;
  };

  const Run ref = run(1);
  // The config actually exercises the injector and both breakers.
  EXPECT_GT(ref.for_run.faults.total_injected(), 0u);
  EXPECT_EQ(ref.for_run.faults.run_degradations[static_cast<int>(
                fault::UnitClass::Mul)],
            1u);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Run got = run(threads);
    EXPECT_TRUE(same_bits(got.task_out, ref.task_out));
    EXPECT_TRUE(same_bits(got.for_out, ref.for_out));
    for (std::size_t k = 0; k < kOuter; ++k)
      expect_same_run(got.task_runs[k], ref.task_runs[k]);
    expect_same_run(got.for_run, ref.for_run);
  }
}

// Regression: Dim3::count() used to multiply in unsigned and overflow for
// production-scale grids (65536^2 blocks wraps 32 bits to 0).
TEST(Dim3, CountDoesNotOverflowLargeGrids) {
  const Dim3 g(65536, 65536);
  EXPECT_EQ(g.count(), 4294967296ull);
  const Dim3 h(1u << 20, 1u << 12, 4);
  EXPECT_EQ(h.count(), (1ull << 32) * 4);
}

TEST(Runtime, ThreadDefaultsAndScopedOverride) {
  EXPECT_GE(hardware_threads(), 1);
  const int before = default_threads();
  {
    ScopedThreads scoped(3);
    EXPECT_EQ(default_threads(), 3);
    {
      ScopedThreads nested(1);
      EXPECT_EQ(default_threads(), 1);
    }
    EXPECT_EQ(default_threads(), 3);
  }
  EXPECT_EQ(default_threads(), before);
}

}  // namespace
}  // namespace ihw::runtime

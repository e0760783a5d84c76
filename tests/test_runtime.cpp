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

using apps::run_with_config_parallel;
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

// Each chunk runs under its chunk index as epoch label. The fault stream
// hashes (seed, class, epoch, op index), so faulted multiplies inside a chunk
// must match the same multiplies run under gpu::run_epoch(c) in a fresh
// context.
TEST(OrderedChunks, EpochOfEachChunkIsItsIndex) {
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults[fault::UnitClass::Mul].rate = 0.5;
  auto body = [](std::uint64_t c) {
    std::vector<float> v;
    for (int i = 0; i < 32; ++i)
      v.push_back((SimFloat(1.5f + static_cast<float>(i)) *
                   SimFloat(1.25f + static_cast<float>(c)))
                      .value());
    return v;
  };
  constexpr std::uint64_t kChunks = 11;
  std::vector<std::vector<float>> want(kChunks);
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    FpContext ctx(cfg);
    ScopedContext scope(ctx);
    gpu::run_epoch(c, [&] { want[c] = body(c); });
  }
  for (int threads = 1; threads <= 4; ++threads) {
    FpContext ctx(cfg);
    ScopedContext scope(ctx);
    std::vector<std::vector<float>> got;
    ordered_chunks<std::vector<float>>(
        kChunks, 1, [&](std::uint64_t b, std::uint64_t) { return body(b); },
        [&](std::vector<float>&& v) { got.push_back(std::move(v)); }, threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
  // Two epochs whose streams coincide would make the check blind.
  FpContext ctx(cfg);
  ScopedContext scope(ctx);
  std::vector<float> epoch0;
  gpu::run_epoch(0, [&] { epoch0 = body(1); });
  EXPECT_NE(epoch0, want[1]);
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

TEST(ParallelLaunch, MatchesSerialLaunchOutput) {
  const Dim3 grid(7, 5, 2), block(4, 3, 2);
  const std::uint64_t cells = grid.count() * block.count();
  std::vector<std::uint64_t> serial(cells, 0), par(cells, 0);

  auto body = [&](std::vector<std::uint64_t>& out) {
    return [&out, grid, block](const gpu::ThreadCtx& t) {
      const std::uint64_t b =
          (t.block_idx.z * grid.y + t.block_idx.y) * grid.x + t.block_idx.x;
      out[b * block.count() + t.linear_tid()] = b * 1000 + t.linear_tid();
    };
  };
  gpu::launch(grid, block, body(serial));
  for (int threads : {1, 2, 8}) {
    std::fill(par.begin(), par.end(), 0);
    parallel_launch(grid, block, body(par), threads);
    EXPECT_EQ(serial, par) << "threads=" << threads;
  }
}

TEST(ParallelLaunchBlocks, BarrierPhasesStaySequentialPerBlock) {
  const Dim3 grid(6, 4), block(8, 8);
  std::vector<int> phase1(grid.count() * block.count(), 0);
  parallel_launch_blocks(
      grid, block,
      [&](const gpu::BlockCtx& blk) {
        const std::uint64_t b =
            blk.block_idx().y * blk.grid_dim().x + blk.block_idx().x;
        int seen = 0;
        blk.phase([&](const gpu::ThreadCtx&) { ++seen; });
        // Barrier contract: phase 1 saw the whole block before phase 2 runs.
        blk.phase([&](const gpu::ThreadCtx& t) {
          phase1[b * block.count() + t.linear_tid()] = seen;
        });
      },
      4);
  for (int s : phase1) ASSERT_EQ(s, static_cast<int>(block.count()));
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
  PerfCounters ref_counters = run_with_config_parallel(cfg, 1, [&] {
    ref = apps::run_hotspot<SimFloat>(p, input);
  });

  for (int threads : {2, 8}) {
    common::GridF out;
    PerfCounters c = run_with_config_parallel(cfg, threads, [&] {
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
  const auto ref_run = apps::run_guarded_parallel(cfg, 1, [&] {
    ref = apps::run_hotspot<SimFloat>(p, input);
  });
  // The faulted config actually exercises the injector and the guard.
  EXPECT_GT(ref_run.faults.total_injected(), 0u);
  EXPECT_GT(ref_run.faults.total_trips(), 0u);

  for (int threads : {2, 8}) {
    common::GridF out;
    const auto run = apps::run_guarded_parallel(cfg, threads, [&] {
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
  PerfCounters ref_counters = run_with_config_parallel(cfg, 1, [&] {
    ref = apps::run_srad<SimFloat>(p, input.image);
  });

  for (int threads : {2, 8}) {
    common::GridF out;
    PerfCounters c = run_with_config_parallel(cfg, threads, [&] {
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

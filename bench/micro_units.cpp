// Micro-throughput benchmarks (google-benchmark) of the functional models:
// useful for regression-tracking the simulator's own speed (these measure
// host-CPU cost of the bit-level models, not the modeled hardware).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arith/datapath.h"
#include "arith/mitchell.h"
#include "common/args.h"
#include "common/rng.h"
#include "fault/spec.h"
#include "gpu/batch.h"
#include "gpu/simreal.h"
#include "gpu/simt.h"
#include "ihw/batch.h"
#include "ihw/ihw.h"
#include "ihw/simd/isa.h"
#include "qmc/sobol.h"
#include "runtime/parallel.h"

using namespace ihw;

namespace {

/// Stamps the span-kernel backend that actually ran into the row's label, so
/// BENCH_*.json rows are attributable/comparable across hosts and ISA forces
/// (a "BM_SpanMulBatch/ifp" number means something different on a scalar-only
/// host than on an AVX-512 one).
void label_isa(benchmark::State& state) {
  state.SetLabel(std::string("isa=") + simd::kernels().name);
}

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.001, 1000.0));
  return v;
}

void BM_PreciseMul(benchmark::State& state) {
  const auto a = inputs(1024, 1), b = inputs(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a[i & 1023] * b[i & 1023]);
    ++i;
  }
}
BENCHMARK(BM_PreciseMul);

void BM_IfpMul(benchmark::State& state) {
  const auto a = inputs(1024, 1), b = inputs(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ifp_mul(a[i & 1023], b[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_IfpMul);

void BM_AcfpMulLog(benchmark::State& state) {
  const auto a = inputs(1024, 1), b = inputs(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acfp_mul(a[i & 1023], b[i & 1023], AcfpPath::Log, 0));
    ++i;
  }
}
BENCHMARK(BM_AcfpMulLog);

void BM_AcfpMulFull(benchmark::State& state) {
  const auto a = inputs(1024, 1), b = inputs(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acfp_mul(a[i & 1023], b[i & 1023], AcfpPath::Full, 0));
    ++i;
  }
}
BENCHMARK(BM_AcfpMulFull);

void BM_IfpAdd(benchmark::State& state) {
  const auto a = inputs(1024, 1), b = inputs(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ifp_add(a[i & 1023], b[i & 1023], 8));
    ++i;
  }
}
BENCHMARK(BM_IfpAdd);

void BM_Ircp(benchmark::State& state) {
  const auto a = inputs(1024, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ircp(a[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_Ircp);

void BM_MitchellFixed(benchmark::State& state) {
  common::Xoshiro256 rng(3);
  std::vector<std::uint64_t> a(1024), b(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    a[i] = rng() >> 41;
    b[i] = rng() >> 41;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arith::mitchell_mul(a[i & 1023], b[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_MitchellFixed);

// Block-parallel SIMT throughput: one HotSpot-shaped stencil sweep through
// the instrumented SimFloat path under the runtime scheduler. Arg = worker
// count (1 = the exact serial gpu::launch path), so the reported times are a
// direct serial-vs-parallel speedup measurement for the runtime.
void BM_ParallelStencil(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr std::size_t kN = 512;
  std::vector<float> in(kN * kN, 1.0f), out(kN * kN, 0.0f);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = 1.0f + static_cast<float>(i % 97) * 0.01f;
  const ihw::gpu::Dim3 block(16, 16);
  const ihw::gpu::Dim3 grid(kN / 16, kN / 16);

  ihw::gpu::FpContext ctx(IhwConfig::all_imprecise());
  ihw::gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    ihw::runtime::parallel_launch(
        grid, block,
        [&](const ihw::gpu::ThreadCtx& tc) {
          using ihw::gpu::SimFloat;
          const std::size_t x = tc.global_x(), y = tc.global_y();
          const std::size_t xe = x + 1 < kN ? x + 1 : x;
          const std::size_t ys = y + 1 < kN ? y + 1 : y;
          const SimFloat c = ihw::gpu::gload(in[y * kN + x]);
          const SimFloat e = ihw::gpu::gload(in[y * kN + xe]);
          const SimFloat s = ihw::gpu::gload(in[ys * kN + x]);
          const SimFloat v = (c + e + s) * rcp(SimFloat(3.0f));
          ihw::gpu::gstore(out[y * kN + x], static_cast<float>(v.value()));
        },
        threads);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * kN));
}
BENCHMARK(BM_ParallelStencil)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Batched SoA fast path vs element-wise SimReal --------------------------
// Pairs measure the same span of work two ways: an element-at-a-time SimFloat
// loop (context lookup + dispatch branch + counter bump per op) against one
// gpu::batch_* call (context/config hoisted, branch-free vector-friendly
// kernel, one counter bump). The scalar/batch time ratio is the speedup the
// regression gate in tools/check_bench_regression.py watches.

constexpr std::size_t kSpan = 1 << 14;

IhwConfig guarded_mul_config() {
  IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  cfg.faults = fault::FaultConfig::uniform(1e-6, 42);
  cfg.guard.enabled = true;
  return cfg;
}

void BM_SpanMulScalar(benchmark::State& state, IhwConfig cfg) {
  const auto a = inputs(kSpan, 11), b = inputs(kSpan, 12);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSpan; ++i)
      out[i] = (gpu::SimFloat(a[i]) * gpu::SimFloat(b[i])).value();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

void BM_SpanMulBatch(benchmark::State& state, IhwConfig cfg) {
  const auto a = inputs(kSpan, 11), b = inputs(kSpan, 12);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    gpu::batch_mul(a.data(), b.data(), out.data(), kSpan);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

BENCHMARK_CAPTURE(BM_SpanMulScalar, precise, IhwConfig::precise());
BENCHMARK_CAPTURE(BM_SpanMulBatch, precise, IhwConfig::precise());
BENCHMARK_CAPTURE(BM_SpanMulScalar, ifp,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0));
BENCHMARK_CAPTURE(BM_SpanMulBatch, ifp,
                  IhwConfig::mul_only(MulMode::ImpreciseSimple, 0));
BENCHMARK_CAPTURE(BM_SpanMulScalar, acfp_log,
                  IhwConfig::mul_only(MulMode::MitchellLog, 0));
BENCHMARK_CAPTURE(BM_SpanMulBatch, acfp_log,
                  IhwConfig::mul_only(MulMode::MitchellLog, 0));
BENCHMARK_CAPTURE(BM_SpanMulScalar, acfp_full,
                  IhwConfig::mul_only(MulMode::MitchellFull, 0));
BENCHMARK_CAPTURE(BM_SpanMulBatch, acfp_full,
                  IhwConfig::mul_only(MulMode::MitchellFull, 0));
BENCHMARK_CAPTURE(BM_SpanMulScalar, trunc,
                  IhwConfig::mul_only(MulMode::BitTruncated, 12));
BENCHMARK_CAPTURE(BM_SpanMulBatch, trunc,
                  IhwConfig::mul_only(MulMode::BitTruncated, 12));
// Screened (fault injection + guard active): the batch entry point falls back
// to the per-element scalar screen for bit-identical fault draws, so this
// pair documents the cost of screening rather than a speedup.
BENCHMARK_CAPTURE(BM_SpanMulScalar, guarded, guarded_mul_config());
BENCHMARK_CAPTURE(BM_SpanMulBatch, guarded, guarded_mul_config());

void BM_SpanAddScalar(benchmark::State& state, IhwConfig cfg) {
  const auto a = inputs(kSpan, 13), b = inputs(kSpan, 14);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSpan; ++i)
      out[i] = (gpu::SimFloat(a[i]) + gpu::SimFloat(b[i])).value();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

void BM_SpanAddBatch(benchmark::State& state, IhwConfig cfg) {
  const auto a = inputs(kSpan, 13), b = inputs(kSpan, 14);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    gpu::batch_add(a.data(), b.data(), out.data(), kSpan);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

IhwConfig add_only_config() {
  IhwConfig cfg;
  cfg.add_enabled = true;
  cfg.add_th = kDefaultAddTh;
  return cfg;
}

BENCHMARK_CAPTURE(BM_SpanAddScalar, precise, IhwConfig::precise());
BENCHMARK_CAPTURE(BM_SpanAddBatch, precise, IhwConfig::precise());
BENCHMARK_CAPTURE(BM_SpanAddScalar, ifp, add_only_config());
BENCHMARK_CAPTURE(BM_SpanAddBatch, ifp, add_only_config());

// --- QMC error-characterization sweep ---------------------------------------
// The inner loop of error/characterize.cpp for the imprecise multiplier:
// Sobol-scattered operands (generated once, outside the timed region, exactly
// as the characterization pipeline stages them per chunk), then approximate
// unit + exact double reference + relative-error accumulation.

void qmc_char_operands(std::vector<float>* a, std::vector<float>* b) {
  qmc::Sobol sobol(4);
  double p[qmc::Sobol::kMaxDims];
  constexpr int kSpread = 4;
  for (std::size_t i = 0; i < kSpan; ++i) {
    sobol.next(p);
    const auto scatter = [](double u, double v) {
      const int e =
          static_cast<int>(std::floor(v * (2 * kSpread + 1))) - kSpread;
      return static_cast<float>(std::ldexp(1.0 + u, e));
    };
    (*a)[i] = scatter(p[0], p[1]);
    (*b)[i] = scatter(p[2], p[3]);
  }
}

// Scalar evaluation, the shape of the old sample_unit() producer: one unit
// call and one exact double reference per element.
void BM_QmcCharScalar(benchmark::State& state) {
  std::vector<float> a(kSpan), b(kSpan), approx(kSpan);
  std::vector<double> exact(kSpan);
  qmc_char_operands(&a, &b);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSpan; ++i) {
      approx[i] = ifp_mul(a[i], b[i]);
      exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    benchmark::DoNotOptimize(approx.data());
    benchmark::DoNotOptimize(exact.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}
BENCHMARK(BM_QmcCharScalar);

// Span evaluation, the shape of eval_unit_batch(): the approximate unit runs
// as one batched span, the exact reference as a plain (vectorizable) loop.
void BM_QmcCharBatch(benchmark::State& state) {
  std::vector<float> a(kSpan), b(kSpan), approx(kSpan);
  std::vector<double> exact(kSpan);
  qmc_char_operands(&a, &b);
  for (auto _ : state) {
    batch::ifp_mul_n(a.data(), b.data(), approx.data(), kSpan);
    for (std::size_t i = 0; i < kSpan; ++i)
      exact[i] = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    benchmark::DoNotOptimize(approx.data());
    benchmark::DoNotOptimize(exact.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}
BENCHMARK(BM_QmcCharBatch);

// --- per-ISA span rows (runtime-registered) ----------------------------------
// One row per vectorized unit per *supported* ISA level, named
// BM_Span<Op>Batch/<unit>/isa:<level>, with the backend pinned for the row's
// duration. The scalar row is the reference-loop baseline, so the
// isa:<level> / isa:scalar time ratio is the measured speedup of runtime
// dispatch on this host -- the number tools/check_bench_regression.py --isa
// floors per level (BENCH_pr8.json).

void span_isa_row(benchmark::State& state, const IhwConfig& cfg, bool add,
                  simd::IsaLevel level) {
  simd::ScopedIsa forced(level);
  const auto a = inputs(kSpan, add ? 13 : 11), b = inputs(kSpan, add ? 14 : 12);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    if (add)
      gpu::batch_add(a.data(), b.data(), out.data(), kSpan);
    else
      gpu::batch_mul(a.data(), b.data(), out.data(), kSpan);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

void span_rcp_isa_row(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedIsa forced(level);
  IhwConfig cfg;
  cfg.rcp_enabled = true;
  const auto a = inputs(kSpan, 15);
  std::vector<float> out(kSpan);
  gpu::FpContext ctx(cfg);
  gpu::ScopedContext scope(ctx);
  for (auto _ : state) {
    gpu::batch_rcp(a.data(), out.data(), kSpan);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  label_isa(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

void register_isa_rows() {
  using simd::IsaLevel;
  for (IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (!simd::isa_supported(level)) continue;
    const std::string suffix = std::string("/isa:") + simd::isa_name(level);
    benchmark::RegisterBenchmark(
        ("BM_SpanMulBatch/ifp" + suffix).c_str(), span_isa_row,
        IhwConfig::mul_only(MulMode::ImpreciseSimple, 0), false, level);
    benchmark::RegisterBenchmark(
        ("BM_SpanMulBatch/acfp_log" + suffix).c_str(), span_isa_row,
        IhwConfig::mul_only(MulMode::MitchellLog, 0), false, level);
    benchmark::RegisterBenchmark(
        ("BM_SpanMulBatch/trunc" + suffix).c_str(), span_isa_row,
        IhwConfig::mul_only(MulMode::BitTruncated, 12), false, level);
    benchmark::RegisterBenchmark(("BM_SpanAddBatch/ifp" + suffix).c_str(),
                                 span_isa_row, add_only_config(), true, level);
    benchmark::RegisterBenchmark(("BM_SpanRcpBatch/sfu" + suffix).c_str(),
                                 span_rcp_isa_row, level);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // --threads=N sets the default worker count for anything not using an
  // explicit per-benchmark count, and is echoed into the report context.
  ihw::common::Args args(argc, argv);
  const int threads = ihw::runtime::configure_threads_from_args(args);
  // --force-isa=scalar|avx2|avx512 pins the span-kernel backend for every
  // row (the per-ISA rows still force their own level). Unsupported forces
  // clamp down, mirroring IHW_FORCE_ISA.
  if (args.has("force-isa")) {
    ihw::simd::IsaLevel want;
    const std::string s = args.get("force-isa", "");
    if (!ihw::simd::isa_parse(s.c_str(), &want)) {
      std::fprintf(stderr, "bad --force-isa=%s (scalar|avx2|avx512)\n",
                   s.c_str());
      return 2;
    }
    ihw::simd::isa_force(want);
  }
  register_isa_rows();
  const char* active = ihw::simd::isa_name(ihw::simd::isa_active());
  std::fprintf(stderr, "ihw_isa: active=%s best_supported=%s\n", active,
               ihw::simd::isa_name(ihw::simd::isa_best_supported()));
  benchmark::AddCustomContext("ihw_isa", active);
  benchmark::AddCustomContext(
      "ihw_isa_best", ihw::simd::isa_name(ihw::simd::isa_best_supported()));
  benchmark::AddCustomContext("runtime_threads", std::to_string(threads));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

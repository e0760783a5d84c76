// The tile-GEMM engine's contract (DESIGN.md §14): gemm::run is bit-identical
// to gemm::reference at every tile size, thread count, SIMD backend, and
// accumulation policy; the screened path keeps fault-draw and guard parity
// with the reference schedule; the fused mac spans match their two-pass
// decomposition; and the black-box accumulation probes (feature_detect.h)
// report exactly the configured policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gemm/feature_detect.h"
#include "gemm/gemm.h"
#include "gpu/context.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/simd/isa.h"

namespace ihw {
namespace {

using gemm::AccumMode;
using gemm::GemmConfig;
using gpu::FpContext;
using gpu::OpClass;
using gpu::ScopedContext;

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

/// Random bit patterns with IEEE specials mixed in (mac-span identity).
std::vector<float> operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> v(n);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min(),
                            1.0f,
                            -1.5f};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 8 == 0) {
      v[i] = specials[rng() % (sizeof(specials) / sizeof(float))];
    } else {
      const auto bits = static_cast<std::uint32_t>(rng());
      std::memcpy(&v[i], &bits, sizeof(float));
    }
  }
  return v;
}

bool spans_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

GemmConfig policy(AccumMode m, int knob) {
  GemmConfig g;
  g.accum = m;
  if (m == AccumMode::kFp32Trunc) g.accum_trunc = knob;
  if (m == AccumMode::kIfpAdd) g.accum_th = knob;
  if (m == AccumMode::kWideFp64) g.accum_block = knob;
  return g;
}

const std::vector<std::pair<std::string, GemmConfig>>& accum_policies() {
  static const std::vector<std::pair<std::string, GemmConfig>> kPolicies = {
      {"fp32", policy(AccumMode::kFp32, 0)},
      {"fp32_trunc tr=6", policy(AccumMode::kFp32Trunc, 6)},
      {"ifp_add th=8", policy(AccumMode::kIfpAdd, 8)},
      {"wide_fp64 blk=5", policy(AccumMode::kWideFp64, 5)},
  };
  return kPolicies;
}

const std::vector<std::pair<std::string, IhwConfig>>& mul_configs() {
  static const std::vector<std::pair<std::string, IhwConfig>> kConfigs = {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"acfp_log tr=8", IhwConfig::mul_only(MulMode::MitchellLog, 8)},
      {"trunc 12", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
  };
  return kConfigs;
}

// --- tiled == reference bit-identity ----------------------------------------

TEST(GemmBitIdentity, TiledMatchesReferenceAcrossTilesThreadsAndPolicies) {
  constexpr int kM = 37, kN = 53, kK = 129;
  const auto A = inputs(std::size_t(kM) * kK, 101);
  const auto B = inputs(std::size_t(kK) * kN, 102);
  // {mc, kc, nc, threads}: canonical, tiny-uneven, degenerate, oversized.
  const int tiles[][4] = {
      {64, 256, 256, 1}, {3, 7, 5, 4}, {1, 16, 8, 3}, {128, 512, 512, 2}};

  for (const auto& [mul_label, icfg] : mul_configs()) {
    for (const auto& [acc_label, base] : accum_policies()) {
      std::vector<float> ref(std::size_t(kM) * kN);
      FpContext ref_ctx(icfg);
      {
        ScopedContext scope(ref_ctx);
        gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, base);
      }
      for (const auto& t : tiles) {
        GemmConfig g = base;
        g.mc = t[0];
        g.kc = t[1];
        g.nc = t[2];
        g.threads = t[3];
        std::vector<float> out(std::size_t(kM) * kN);
        FpContext ctx(icfg);
        {
          ScopedContext scope(ctx);
          gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
        }
        EXPECT_TRUE(spans_identical(out, ref))
            << mul_label << " / " << acc_label << " tiles {" << t[0] << ","
            << t[1] << "," << t[2] << "} threads " << t[3];
        // Both paths charge the caller exactly M*N*K multiplies and adds.
        EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts)
            << mul_label << " / " << acc_label;
      }
      const auto macs = std::uint64_t(kM) * kN * kK;
      EXPECT_EQ(ref_ctx.counters()[OpClass::FMul], macs);
      EXPECT_EQ(ref_ctx.counters()[OpClass::FAdd], macs);
    }
  }
}

TEST(GemmBitIdentity, InvariantAcrossSimdBackends) {
  constexpr int kM = 19, kN = 40, kK = 33;
  const auto A = inputs(std::size_t(kM) * kK, 103);
  const auto B = inputs(std::size_t(kK) * kN, 104);
  const IhwConfig icfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);

  for (const auto& [acc_label, g] : accum_policies()) {
    std::vector<float> ref(std::size_t(kM) * kN);
    {
      FpContext ctx(icfg);
      ScopedContext scope(ctx);
      gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, g);
    }
    for (simd::IsaLevel level : {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
                                 simd::IsaLevel::kAvx512}) {
      // Unsupported levels clamp down inside the dispatcher; the identity
      // must hold wherever the force actually lands.
      simd::ScopedIsa forced(level);
      std::vector<float> out(std::size_t(kM) * kN);
      FpContext ctx(icfg);
      ScopedContext scope(ctx);
      gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
      EXPECT_TRUE(spans_identical(out, ref))
          << acc_label << " under forced " << simd::isa_name(level)
          << " (active " << simd::kernels().name << ")";
    }
  }
}

TEST(GemmBitIdentity, DegenerateShapesAndTiles) {
  const auto A = inputs(64, 105);
  const auto B = inputs(64, 106);
  std::vector<float> C(16, 42.0f);
  // K <= 0: every element keeps its +0 accumulation seed.
  gemm::run(A.data(), B.data(), C.data(), 4, 4, 0, GemmConfig{});
  for (float v : C) EXPECT_EQ(v, 0.0f);
  std::fill(C.begin(), C.end(), 42.0f);
  // M/N <= 0: no-op, C untouched.
  gemm::run(A.data(), B.data(), C.data(), 0, 4, 4, GemmConfig{});
  gemm::run(A.data(), B.data(), C.data(), 4, -1, 4, GemmConfig{});
  for (float v : C) EXPECT_EQ(v, 42.0f);
  // Nonpositive tile sizes clamp to 1 and still honor the contract.
  GemmConfig g = policy(AccumMode::kWideFp64, 3);
  g.mc = 0;
  g.kc = -5;
  g.nc = 0;
  std::vector<float> out(16), ref(16);
  gemm::run(A.data(), B.data(), out.data(), 4, 4, 4, g);
  gemm::reference(A.data(), B.data(), ref.data(), 4, 4, 4, g);
  EXPECT_TRUE(spans_identical(out, ref));
}

// --- screened path: fault and counter parity --------------------------------

TEST(GemmScreened, FaultAndCounterParityAcrossThreads) {
  constexpr int kM = 23, kN = 31, kK = 57;
  const auto A = inputs(std::size_t(kM) * kK, 107);
  const auto B = inputs(std::size_t(kK) * kN, 108);
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = fault::FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;

  std::vector<float> ref(std::size_t(kM) * kN);
  FpContext ref_ctx(cfg);
  {
    ScopedContext scope(ref_ctx);
    gemm::reference(A.data(), B.data(), ref.data(), kM, kN, kK, GemmConfig{});
  }
  EXPECT_GT(ref_ctx.fault_counters().total_injected(), 0u);

  for (int threads : {1, 3}) {
    GemmConfig g;
    g.threads = threads;
    std::vector<float> out(std::size_t(kM) * kN);
    FpContext ctx(cfg);
    {
      ScopedContext scope(ctx);
      gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
    }
    EXPECT_TRUE(spans_identical(out, ref)) << "threads " << threads;
    const auto& fa = ctx.fault_counters();
    const auto& fb = ref_ctx.fault_counters();
    EXPECT_EQ(fa.injected, fb.injected) << "threads " << threads;
    EXPECT_EQ(fa.guard_trips, fb.guard_trips) << "threads " << threads;
    EXPECT_EQ(fa.degraded_epochs, fb.degraded_epochs) << "threads " << threads;
    EXPECT_EQ(fa.run_degradations, fb.run_degradations)
        << "threads " << threads;
    EXPECT_EQ(fa.retried_epochs, fb.retried_epochs) << "threads " << threads;
    EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts)
        << "threads " << threads;
  }
}

// --- fused mac spans == two-pass decomposition ------------------------------

TEST(GemmMacSpans, FusedMatchesTwoPassEverywhere) {
  constexpr std::size_t kN = 8192;
  const auto a = operands(kN, 201), b = operands(kN, 202), c = operands(kN, 203);

  std::vector<IhwConfig> configs;
  configs.push_back(IhwConfig::all_imprecise());
  for (MulMode m : {MulMode::ImpreciseSimple, MulMode::MitchellLog,
                    MulMode::MitchellFull, MulMode::BitTruncated}) {
    IhwConfig cfg = IhwConfig::mul_only(m, 9);
    configs.push_back(cfg);  // imprecise mul, precise accumulate
    cfg.add_enabled = true;
    cfg.add_th = 8;
    configs.push_back(cfg);  // fully fused imprecise path
  }
  IhwConfig add_only = IhwConfig::precise();
  add_only.add_enabled = true;
  add_only.add_th = 12;
  configs.push_back(add_only);  // precise mul, imprecise accumulate

  for (const auto& cfg : configs) {
    const FpDispatch d(cfg);
    std::vector<float> want(kN), tmp(kN), got(kN);
    d.mul_n(a.data(), b.data(), tmp.data(), kN);
    d.add_n(tmp.data(), c.data(), want.data(), kN);
    d.mac_n(a.data(), b.data(), c.data(), got.data(), kN);
    ASSERT_TRUE(spans_identical(got, want))
        << "mac_n vs mul_n+add_n, mul_mode "
        << static_cast<int>(cfg.mul_mode) << " add_enabled "
        << cfg.add_enabled;
    // `out` may alias the addend span.
    got = c;
    d.mac_n(a.data(), b.data(), got.data(), got.data(), kN);
    ASSERT_TRUE(spans_identical(got, want))
        << "aliased mac_n, mul_mode " << static_cast<int>(cfg.mul_mode);
  }
}

// --- accumulation-feature probes --------------------------------------------

TEST(GemmFeatureProbes, DetectMatchesConfiguredPolicy) {
  std::vector<GemmConfig> grid = {policy(AccumMode::kFp32, 0)};
  for (int tr : {0, 1, 2, 4, 12, 22})
    grid.push_back(policy(AccumMode::kFp32Trunc, tr));
  for (int th : {1, 2, 8, 16, 27, 30})  // 30 clamps to the datapath max
    grid.push_back(policy(AccumMode::kIfpAdd, th));
  for (int blk : {1, 2, 3, 8, 32, 128, 200})  // 200 saturates the probe
    grid.push_back(policy(AccumMode::kWideFp64, blk));

  for (const auto& g : grid) {
    const auto det = gemm::detect(g);
    const auto exp = gemm::expected(g);
    EXPECT_EQ(det, exp) << to_string(g.accum) << " trunc " << g.accum_trunc
                        << " th " << g.accum_th << " blk " << g.accum_block
                        << ": detected " << det.describe() << ", expected "
                        << exp.describe();
  }
}

TEST(GemmFeatureProbes, ProbesSeparateThePolicies) {
  // The probe vector must distinguish materially different accumulators,
  // otherwise the self-test could pass with detect() hard-wired.
  const auto fp32 = gemm::detect(policy(AccumMode::kFp32, 0));
  const auto trunc = gemm::detect(policy(AccumMode::kFp32Trunc, 12));
  const auto ifp = gemm::detect(policy(AccumMode::kIfpAdd, 8));
  const auto wide = gemm::detect(policy(AccumMode::kWideFp64, 32));
  EXPECT_NE(fp32, trunc);
  EXPECT_NE(fp32, ifp);
  EXPECT_NE(fp32, wide);
  EXPECT_NE(trunc, ifp);
  EXPECT_EQ(fp32.accum_frac_bits, 23);
  EXPECT_EQ(trunc.accum_frac_bits, 11);
  EXPECT_EQ(ifp.accum_frac_bits, 7);
  EXPECT_EQ(wide.wide_block, 32);
}

}  // namespace
}  // namespace ihw

// The ABFT layer's contract (DESIGN.md §15): detect mode never changes the
// output and never flags fault-free runs at the calibrated thresholds;
// detection, recovery, and every counter are bit-deterministic across tile
// sizes, thread counts, and ISA levels (the forced-ISA ctest variants rerun
// this binary per backend); injected faults are either caught-and-recovered
// or provably below the quality bound; non-finite results are immediate
// detections; and the screened mac_n span flags NaN/Inf partials whose true
// chain is finite instead of letting them poison downstream screens.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "apps/mlp.h"
#include "common/args.h"
#include "common/rng.h"
#include "common/sweep_flags.h"
#include "fault/guarded_dispatch.h"
#include "fault/spec.h"
#include "gemm/abft.h"
#include "gemm/gemm.h"
#include "gpu/context.h"

namespace ihw {
namespace {

using gemm::AbftMode;
using gemm::AccumMode;
using gemm::GemmConfig;
using gemm::abft::AbftCounters;
using gemm::abft::ScopedAbftCounters;
using gpu::FpContext;
using gpu::ScopedContext;

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
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
      {"wide_fp64 blk=32", policy(AccumMode::kWideFp64, 32)},
  };
  return kPolicies;
}

/// Mul-class-only fault config: the policy accumulator sits outside the
/// voltage-overscaled multiply array (gemm::detail::canonical_element docs).
IhwConfig faulted_ifp(double rate, std::uint64_t seed) {
  IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  cfg.faults.seed = seed;
  cfg.faults[fault::UnitClass::Mul].rate = rate;
  return cfg;
}

void expect_counters_eq(const AbftCounters& a, const AbftCounters& b,
                        const std::string& what) {
  EXPECT_EQ(a.checksums, b.checksums) << what;
  EXPECT_EQ(a.detections, b.detections) << what;
  EXPECT_EQ(a.nonfinite, b.nonfinite) << what;
  EXPECT_EQ(a.blocks_recovered, b.blocks_recovered) << what;
  EXPECT_EQ(a.fp_screens, b.fp_screens) << what;
  EXPECT_EQ(a.residual_max, b.residual_max) << what;  // serial fp64: exact
}

// --- fault-free behaviour ---------------------------------------------------

TEST(AbftFaultFree, DetectModeKeepsBitsAndNeverFlags) {
  constexpr int kM = 41, kN = 33, kK = 65;
  const auto A = inputs(std::size_t(kM) * kK, 301);
  const auto B = inputs(std::size_t(kK) * kN, 302);
  const std::vector<std::pair<std::string, IhwConfig>> muls = {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"acfp_log tr=8", IhwConfig::mul_only(MulMode::MitchellLog, 8)},
      {"trunc 12", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
  };
  for (const auto& [mul_label, icfg] : muls) {
    for (const auto& [acc_label, base] : accum_policies()) {
      std::vector<float> plain(std::size_t(kM) * kN);
      std::vector<float> checked(std::size_t(kM) * kN);
      GemmConfig g = base;
      FpContext ctx(icfg);
      ScopedContext scope(ctx);
      gemm::run(A.data(), B.data(), plain.data(), kM, kN, kK, g);
      g.abft = AbftMode::kDetect;
      AbftCounters c;
      {
        ScopedAbftCounters sink(c);
        gemm::run(A.data(), B.data(), checked.data(), kM, kN, kK, g);
      }
      const std::string what = mul_label + " / " + acc_label;
      EXPECT_TRUE(spans_identical(checked, plain)) << what;
      EXPECT_EQ(c.checksums, std::uint64_t(kM + kN)) << what;
      EXPECT_EQ(c.detections, 0u) << what;
      EXPECT_EQ(c.nonfinite, 0u) << what;
      EXPECT_LE(c.residual_max, 1.0) << what;
    }
  }
}

TEST(AbftFaultFree, MlpOperatingGridHasZeroFalsePositives) {
  // The ten mlp_inference operating points, in detect mode with no faults:
  // the threshold calibration must stay exactly quiet on every one.
  struct Point {
    IhwConfig cfg;
    GemmConfig gcfg;
  };
  const Point grid[] = {
      {IhwConfig::precise(), policy(AccumMode::kFp32, 0)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kFp32, 0)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kWideFp64, 32)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kFp32Trunc, 6)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kFp32Trunc, 12)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kIfpAdd, 8)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kIfpAdd, 4)},
      {IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       policy(AccumMode::kIfpAdd, 2)},
      {IhwConfig::mul_only(MulMode::MitchellLog, 8),
       policy(AccumMode::kFp32, 0)},
      {IhwConfig::mul_only(MulMode::BitTruncated, 12),
       policy(AccumMode::kFp32, 0)},
  };
  for (const auto& pt : grid) {
    apps::MlpParams p;
    p.samples = 64;
    p.gemm = pt.gcfg;
    p.gemm.abft = AbftMode::kDetect;
    FpContext ctx(pt.cfg);
    apps::MlpResult res;
    {
      ScopedContext scope(ctx);
      res = apps::run_mlp(p);
    }
    // Two layers: (samples + hidden) + (samples + classes) checks.
    EXPECT_EQ(res.abft.checksums,
              std::uint64_t(2 * p.samples + p.hidden + p.classes));
    EXPECT_EQ(res.abft.detections, 0u);
    EXPECT_EQ(res.abft.nonfinite, 0u);
  }
}

// --- determinism ------------------------------------------------------------

TEST(AbftDeterminism, BitsAndCountersMatchAcrossThreadsTilingsPolicies) {
  constexpr int kM = 48, kN = 48, kK = 48;
  const auto A = inputs(std::size_t(kM) * kK, 303);
  const auto B = inputs(std::size_t(kK) * kN, 304);
  const IhwConfig cfg = faulted_ifp(2e-3, 0xfee1);

  for (const auto& [acc_label, base] : accum_policies()) {
    // Baseline: serial, default tiling.
    std::vector<float> ref(std::size_t(kM) * kN);
    GemmConfig g0 = base;
    g0.abft = AbftMode::kRecover;
    AbftCounters c0;
    FpContext ref_ctx(cfg);
    {
      ScopedContext scope(ref_ctx);
      ScopedAbftCounters sink(c0);
      gemm::run(A.data(), B.data(), ref.data(), kM, kN, kK, g0);
    }
    EXPECT_GT(ref_ctx.fault_counters().total_injected(), 0u) << acc_label;

    // {mc, kc, nc, threads}: tiny-uneven, degenerate, canonical-threaded.
    const int variants[][4] = {{3, 7, 5, 1}, {1, 16, 8, 1}, {64, 256, 256, 3}};
    for (const auto& v : variants) {
      GemmConfig g = g0;
      g.mc = v[0];
      g.kc = v[1];
      g.nc = v[2];
      g.threads = v[3];
      std::vector<float> out(std::size_t(kM) * kN);
      AbftCounters c;
      FpContext ctx(cfg);
      {
        ScopedContext scope(ctx);
        ScopedAbftCounters sink(c);
        gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
      }
      const std::string what = acc_label + " tiling " +
                               std::to_string(v[0]) + "/" +
                               std::to_string(v[1]) + "/" +
                               std::to_string(v[2]) + " threads " +
                               std::to_string(v[3]);
      EXPECT_TRUE(spans_identical(out, ref)) << what;
      expect_counters_eq(c, c0, what);
      const auto& fa = ctx.fault_counters();
      const auto& fb = ref_ctx.fault_counters();
      EXPECT_EQ(fa.injected, fb.injected) << what;
      EXPECT_EQ(fa.guard_trips, fb.guard_trips) << what;
      EXPECT_EQ(fa.nonfinite_flags, fb.nonfinite_flags) << what;
      EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts) << what;
    }
  }
}

// --- injected-fault safety contract -----------------------------------------

TEST(AbftRecover, InjectedFaultsCaughtOrBelowBound) {
  constexpr int kM = 64, kN = 64, kK = 64;
  const auto A = inputs(std::size_t(kM) * kK, 305);
  const auto B = inputs(std::size_t(kK) * kN, 306);
  const IhwConfig clean = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  const IhwConfig cfg = faulted_ifp(1e-3, 0xabf7);
  const GemmConfig base = policy(AccumMode::kFp32, 0);

  std::vector<float> ref(std::size_t(kM) * kN);
  {
    FpContext ctx(clean);
    ScopedContext scope(ctx);
    gemm::run(A.data(), B.data(), ref.data(), kM, kN, kK, base);
  }
  const auto th =
      gemm::abft::thresholds(A.data(), B.data(), kM, kN, kK, base, clean);

  GemmConfig g = base;
  g.abft = AbftMode::kRecover;
  std::vector<float> rec(std::size_t(kM) * kN);
  AbftCounters c;
  FpContext ctx(cfg);
  {
    ScopedContext scope(ctx);
    ScopedAbftCounters sink(c);
    gemm::run(A.data(), B.data(), rec.data(), kM, kN, kK, g);
  }
  EXPECT_GT(ctx.fault_counters().total_injected(), 0u);
  EXPECT_GT(c.detections, 0u);
  EXPECT_GT(c.blocks_recovered, 0u);

  // After recovery nothing may sit past the per-element quality bound.
  for (int i = 0; i < kM; ++i) {
    for (int j = 0; j < kN; ++j) {
      const std::size_t at = std::size_t(i) * kN + j;
      const double d = double(rec[at]) - double(ref[at]);
      const double bound = 2.0 * std::min(th.row[i], th.col[j]);
      ASSERT_TRUE(std::isfinite(double(rec[at]))) << i << "," << j;
      ASSERT_LE(std::fabs(d), bound) << i << "," << j;
    }
  }
}

TEST(AbftRecover, NonFiniteChecksumsDetectImmediately) {
  constexpr int kM = 48, kN = 48, kK = 48;
  const auto A = inputs(std::size_t(kM) * kK, 307);
  const auto B = inputs(std::size_t(kK) * kN, 308);
  // Stuck-at-1 on the product's top exponent bits: elements blow up to
  // ~2^126 and a few of those in one fp32 chain overflow to Inf.
  IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  auto& spec = cfg.faults[fault::UnitClass::Mul];
  spec.rate = 0.05;
  spec.model = fault::FaultModel::StuckAt1;
  spec.bit_lo = 28;
  spec.bit_hi = 30;

  GemmConfig g;
  g.abft = AbftMode::kRecover;
  std::vector<float> out(std::size_t(kM) * kN);
  AbftCounters c;
  FpContext ctx(cfg);
  {
    ScopedContext scope(ctx);
    ScopedAbftCounters sink(c);
    gemm::run(A.data(), B.data(), out.data(), kM, kN, kK, g);
  }
  EXPECT_GT(c.nonfinite, 0u);
  EXPECT_GT(c.detections, 0u);
  for (float v : out) ASSERT_TRUE(std::isfinite(double(v)));
}

// --- screened mac_n NaN/Inf semantics ---------------------------------------

TEST(MacNonFinite, ScreenedSpanFlagsPoisonedPartials) {
  // Detect-only guard (recover off): a fault-made Inf survives the mul
  // screen, poisons the add screen's precise reference (Inf + c), and would
  // propagate unflagged without the element-level backstop. The backstop
  // must count it as a nonfinite flag and trip the epoch.
  IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  auto& spec = cfg.faults[fault::UnitClass::Mul];
  spec.rate = 1.0;  // every product faulted
  spec.model = fault::FaultModel::StuckAt1;
  spec.bit_lo = 30;
  spec.bit_hi = 30;
  cfg.guard.enabled = true;
  cfg.guard.recover = false;

  constexpr std::size_t kN = 16;
  // Products in [1, 2): exponent field 127, so OR-ing bit 30 makes it 255.
  std::vector<float> a(kN, 1.25f), b(kN, 1.0f), c(kN, 0.5f), out(kN);
  fault::GuardedDispatch d(cfg);
  d.begin_epoch(0);
  d.mac_n(a.data(), b.data(), c.data(), out.data(), kN);
  EXPECT_GT(d.counters().nonfinite_flags, 0u);
  EXPECT_TRUE(d.epoch_tripped());
  bool any_nonfinite = false;
  for (float v : out) any_nonfinite |= !std::isfinite(double(v));
  EXPECT_TRUE(any_nonfinite);  // detect-only: flagged, deliberately unrepaired

  // Same span with recovery on: the mul-level screen repairs the Inf before
  // the add, so the chain stays finite and matches the precise composition.
  cfg.guard.recover = true;
  fault::GuardedDispatch dr(cfg);
  dr.begin_epoch(0);
  dr.mac_n(a.data(), b.data(), c.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(std::isfinite(double(out[i]))) << i;
    EXPECT_EQ(out[i], a[i] * b[i] + c[i]) << i;
  }
}

// --- shared --abft flag parsing ---------------------------------------------

TEST(AbftFlag, ParsesAndRejectsStrictly) {
  auto parse = [](const char* flag) {
    std::vector<char*> argv = {const_cast<char*>("bench"),
                               const_cast<char*>(flag)};
    common::Args args(static_cast<int>(argv.size()), argv.data());
    return common::parse_abft_flag(args);
  };
  EXPECT_EQ(parse("--abft=off"), 0);
  EXPECT_EQ(parse("--abft=detect"), 1);
  EXPECT_EQ(parse("--abft=recover"), 2);
  {
    std::vector<char*> argv = {const_cast<char*>("bench")};
    common::Args args(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(common::parse_abft_flag(args), 0);  // absent = off
    EXPECT_EQ(common::SweepFlags::from_args(args).abft, 0);
  }
  EXPECT_THROW(parse("--abft=1"), common::ArgError);
  EXPECT_THROW(parse("--abft=on"), common::ArgError);
  try {
    parse("--abft=banana");
    FAIL() << "expected ArgError";
  } catch (const common::ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("--abft"), std::string::npos);
  }
}

}  // namespace
}  // namespace ihw

// Batch <-> scalar bit-identity for the SoA fast path (DESIGN.md §10):
// every unit kernel across its parameter space, every dispatch config, the
// guarded/faulted screen, the context-level batch_* ops (values + counters),
// runtime::batch_apply across thread counts, and the batched app ports
// against their scalar SimReal references.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <cmath>
#include <random>
#include <vector>

#include "apps/cp.h"
#include "apps/hotspot.h"
#include "apps/srad.h"
#include "fault/guarded_dispatch.h"
#include "gpu/batch.h"
#include "gpu/context.h"
#include "gpu/simreal.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "runtime/parallel.h"

namespace ihw {
namespace {

using fault::FaultConfig;
using fault::GuardedDispatch;
using fault::UnitClass;
using gpu::FpContext;
using gpu::OpClass;
using gpu::ScopedContext;
using gpu::SimFloat;

template <typename T>
bool same_bits(T a, T b) {
  fp::BitsOf<T> x, y;
  std::memcpy(&x, &a, sizeof(T));
  std::memcpy(&y, &b, sizeof(T));
  return x == y;
}

/// Random bit patterns with every IEEE special class mixed in.
template <typename T>
std::vector<T> operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> v(n);
  const T specials[] = {T(0.0),
                        T(-0.0),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min(),
                        std::numeric_limits<T>::max(),
                        std::numeric_limits<T>::min(),
                        T(1.0),
                        T(-1.0),
                        T(1.5)};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 8 == 0) {
      v[i] = specials[rng() % (sizeof(specials) / sizeof(T))];
    } else {
      const auto bits = static_cast<fp::BitsOf<T>>(rng());
      std::memcpy(&v[i], &bits, sizeof(T));
    }
  }
  return v;
}

/// Positive operands in a numerically tame range (for SFU / guard paths).
template <typename T>
std::vector<T> positive_operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> expo(-6, 6);
  std::vector<T> v(n);
  for (auto& x : v)
    x = static_cast<T>(std::ldexp(mant(rng), expo(rng)));
  return v;
}

/// Bitwise equality, except any-NaN == any-NaN. The imprecise units emit a
/// canonical qNaN (strictly checked by the BatchUnits tests), but the
/// *precise* hardware path propagates whichever operand's payload lands in
/// the destination register -- x86 addss/addps payload selection follows
/// operand allocation, which differs between the out-of-line scalar call and
/// the inlined span loop. C++ does not pin this, so dispatch-level tests use
/// this comparator.
template <typename T>
bool same_value(T a, T b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return same_bits(a, b);
}

constexpr std::size_t kN = 20000;

// --- unit-kernel bit-identity ----------------------------------------------

template <typename T>
void expect_span_matches(const char* what, const std::vector<T>& got,
                         const std::vector<T>& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " diverges at " << i << ": got " << got[i] << " want "
        << want[i];
}

template <typename T>
void run_adder_sweep() {
  const auto a = operands<T>(kN, 1), b = operands<T>(kN, 2);
  std::vector<T> out(kN), ref(kN);
  for (int th : {1, 2, 4, 8, 12, 23, 27, 52, 56, 0, -3, 99}) {
    batch::ifp_add_n(a.data(), b.data(), out.data(), kN, th);
    for (std::size_t i = 0; i < kN; ++i) ref[i] = ifp_add(a[i], b[i], th);
    expect_span_matches("ifp_add_n", out, ref);
    batch::ifp_sub_n(a.data(), b.data(), out.data(), kN, th);
    for (std::size_t i = 0; i < kN; ++i) ref[i] = ifp_sub(a[i], b[i], th);
    expect_span_matches("ifp_sub_n", out, ref);
  }
}

TEST(BatchUnits, AdderThSweepFloat) { run_adder_sweep<float>(); }
TEST(BatchUnits, AdderThSweepDouble) { run_adder_sweep<double>(); }

template <typename T>
void run_mul_sweep() {
  const auto a = operands<T>(kN, 3), b = operands<T>(kN, 4);
  std::vector<T> out(kN), ref(kN);
  batch::ifp_mul_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = ifp_mul(a[i], b[i]);
  expect_span_matches("ifp_mul_n", out, ref);

  for (int tr : {0, 1, 8, 12, 23, 31, 52, 60, -2}) {
    for (AcfpPath path : {AcfpPath::Log, AcfpPath::Full}) {
      batch::acfp_mul_n(a.data(), b.data(), out.data(), kN, path, tr);
      for (std::size_t i = 0; i < kN; ++i)
        ref[i] = acfp_mul(a[i], b[i], path, tr);
      expect_span_matches("acfp_mul_n", out, ref);
    }
    batch::trunc_mul_n(a.data(), b.data(), out.data(), kN, tr);
    for (std::size_t i = 0; i < kN; ++i) ref[i] = trunc_mul(a[i], b[i], tr);
    expect_span_matches("trunc_mul_n", out, ref);
  }
}

TEST(BatchUnits, MulModesFloat) { run_mul_sweep<float>(); }
TEST(BatchUnits, MulModesDouble) { run_mul_sweep<double>(); }

template <typename T>
void run_sfu_sweep() {
  const auto a = operands<T>(kN, 5), b = operands<T>(kN, 6);
  std::vector<T> out(kN), ref(kN);
  batch::ircp_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = ircp(a[i]);
  expect_span_matches("ircp_n", out, ref);
  batch::irsqrt_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = irsqrt(a[i]);
  expect_span_matches("irsqrt_n", out, ref);
  batch::isqrt_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = isqrt(a[i]);
  expect_span_matches("isqrt_n", out, ref);
  batch::ilog2_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = ilog2(a[i]);
  expect_span_matches("ilog2_n", out, ref);
  batch::iexp2_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = iexp2(a[i]);
  expect_span_matches("iexp2_n", out, ref);
  batch::ifp_div_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = ifp_div(a[i], b[i]);
  expect_span_matches("ifp_div_n", out, ref);

  const auto c = operands<T>(kN, 7);
  for (int th : {4, 8, 23}) {
    batch::ifp_fma_n(a.data(), b.data(), c.data(), out.data(), kN, th);
    for (std::size_t i = 0; i < kN; ++i)
      ref[i] = ifp_fma(a[i], b[i], c[i], th);
    expect_span_matches("ifp_fma_n", out, ref);
  }
}

TEST(BatchUnits, SfuAndFmaFloat) {
  run_sfu_sweep<float>();
  // Every sign, exponent field and top 7 fraction bits, with the low half
  // clear and set: the vector ircp lane against the unit, including the
  // exponents whose results fall into the subnormal flush.
  constexpr std::size_t kPatterns = std::size_t{1} << 16;
  std::vector<float> x(2 * kPatterns), out(x.size()), ref(x.size());
  for (std::size_t p = 0; p < kPatterns; ++p) {
    const auto hi = static_cast<std::uint32_t>(p) << 16;
    x[2 * p] = fp::from_bits<float>(hi);
    x[2 * p + 1] = fp::from_bits<float>(hi | 0xffffu);
  }
  batch::ircp_n(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ref[i] = ircp(x[i]);
  expect_span_matches("ircp_n (2^16 high halves)", out, ref);
}
TEST(BatchUnits, SfuAndFmaDouble) { run_sfu_sweep<double>(); }

template <typename T>
void expect_span_matches_value(const char* what, const std::vector<T>& got,
                               const std::vector<T>& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_value(got[i], want[i]))
        << what << " diverges at " << i << ": got " << got[i] << " want "
        << want[i];
}

// --- dispatch-level bit-identity across configs ----------------------------

std::vector<IhwConfig> interesting_configs() {
  std::vector<IhwConfig> cfgs;
  cfgs.push_back(IhwConfig::precise());
  cfgs.push_back(IhwConfig::all_imprecise());
  for (MulMode m : {MulMode::ImpreciseSimple, MulMode::MitchellLog,
                    MulMode::MitchellFull, MulMode::BitTruncated})
    cfgs.push_back(IhwConfig::mul_only(m, 8));
  IhwConfig add_only;
  add_only.add_enabled = true;
  add_only.add_th = 4;
  cfgs.push_back(add_only);
  return cfgs;
}

template <typename T>
void run_dispatch_identity(const IhwConfig& cfg) {
  const FpDispatch d(cfg);
  const auto a = operands<T>(kN, 8), b = operands<T>(kN, 9),
             c = operands<T>(kN, 10);
  std::vector<T> out(kN), ref(kN);

  d.add_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.add(a[i], b[i]);
  expect_span_matches_value("add_n", out, ref);
  d.sub_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.sub(a[i], b[i]);
  expect_span_matches_value("sub_n", out, ref);
  d.mul_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.mul(a[i], b[i]);
  expect_span_matches_value("mul_n", out, ref);
  d.div_n(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.div(a[i], b[i]);
  expect_span_matches_value("div_n", out, ref);
  d.fma_n(a.data(), b.data(), c.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.fma(a[i], b[i], c[i]);
  expect_span_matches_value("fma_n", out, ref);
  d.rcp_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.rcp(a[i]);
  expect_span_matches_value("rcp_n", out, ref);
  d.rsqrt_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.rsqrt(a[i]);
  expect_span_matches_value("rsqrt_n", out, ref);
  d.sqrt_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.sqrt(a[i]);
  expect_span_matches_value("sqrt_n", out, ref);
  d.log2_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.log2(a[i]);
  expect_span_matches_value("log2_n", out, ref);
  d.exp2_n(a.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = d.exp2(a[i]);
  expect_span_matches_value("exp2_n", out, ref);
}

TEST(BatchDispatch, EveryConfigBitIdenticalFloat) {
  for (const auto& cfg : interesting_configs()) run_dispatch_identity<float>(cfg);
}
TEST(BatchDispatch, EveryConfigBitIdenticalDouble) {
  for (const auto& cfg : interesting_configs()) run_dispatch_identity<double>(cfg);
}

// --- guarded/faulted spans --------------------------------------------------

IhwConfig faulted_guarded_config() {
  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;
  return cfg;
}

void expect_fault_counters_eq(const fault::FaultCounters& a,
                              const fault::FaultCounters& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.guard_trips, b.guard_trips);
  EXPECT_EQ(a.degraded_epochs, b.degraded_epochs);
  EXPECT_EQ(a.run_degradations, b.run_degradations);
  EXPECT_EQ(a.retried_epochs, b.retried_epochs);
}

TEST(BatchGuarded, ScreenedSpanMatchesScalarScreen) {
  const IhwConfig cfg = faulted_guarded_config();
  const auto a = positive_operands<float>(kN, 11),
             b = positive_operands<float>(kN, 12),
             c = positive_operands<float>(kN, 13);
  std::vector<float> out(kN), ref(kN);

  GuardedDispatch scalar(cfg), batched(cfg);
  // A multi-op "kernel": per element mul, add, fma, rcp. Span-at-a-time
  // execution assigns each class the same per-class (epoch, op index)
  // sequence as element-at-a-time execution, so fault draws and guard
  // decisions are identical (DESIGN.md §10).
  scalar.begin_epoch(3);
  std::vector<float> m1(kN), s1(kN), f1(kN), r1(kN);
  for (std::size_t i = 0; i < kN; ++i) m1[i] = scalar.mul(a[i], b[i]);
  for (std::size_t i = 0; i < kN; ++i) s1[i] = scalar.add(m1[i], c[i]);
  for (std::size_t i = 0; i < kN; ++i) f1[i] = scalar.fma(a[i], b[i], c[i]);
  for (std::size_t i = 0; i < kN; ++i) r1[i] = scalar.rcp(a[i]);
  scalar.end_launch();

  batched.begin_epoch(3);
  std::vector<float> m2(kN), s2(kN), f2(kN), r2(kN);
  batched.mul_n(a.data(), b.data(), m2.data(), kN);
  batched.add_n(m2.data(), c.data(), s2.data(), kN);
  batched.fma_n(a.data(), b.data(), c.data(), f2.data(), kN);
  batched.rcp_n(a.data(), r2.data(), kN);
  batched.end_launch();

  expect_span_matches("guarded mul", m2, m1);
  expect_span_matches("guarded add", s2, s1);
  expect_span_matches("guarded fma", f2, f1);
  expect_span_matches("guarded rcp", r2, r1);
  EXPECT_GT(scalar.counters().total_injected(), 0u);
  expect_fault_counters_eq(scalar.counters(), batched.counters());
}

// --- context-level batch ops: values and counters ---------------------------

TEST(BatchContext, ValuesAndCountersMatchSimRealLoop) {
  const IhwConfig cfg = IhwConfig::all_imprecise();
  const auto a = positive_operands<float>(kN, 14),
             b = positive_operands<float>(kN, 15);

  FpContext ref_ctx(cfg);
  std::vector<float> ref(kN);
  {
    ScopedContext active(ref_ctx);
    for (std::size_t i = 0; i < kN; ++i) {
      SimFloat acc = SimFloat(a[i]) * SimFloat(b[i]);
      acc += rcp(SimFloat(b[i]));
      acc -= SimFloat(2.0f);
      ref[i] = (acc * rsqrt(SimFloat(a[i]))).value();
    }
  }

  FpContext ctx(cfg);
  std::vector<float> out(kN), t0(kN);
  {
    ScopedContext active(ctx);
    gpu::batch_mul(a.data(), b.data(), out.data(), kN);
    gpu::batch_rcp(b.data(), t0.data(), kN);
    gpu::batch_add(out.data(), t0.data(), out.data(), kN);
    gpu::batch_sub_scalar(out.data(), 2.0f, out.data(), kN);
    gpu::batch_rsqrt(a.data(), t0.data(), kN);
    gpu::batch_mul(out.data(), t0.data(), out.data(), kN);
  }

  expect_span_matches("context pipeline", out, ref);
  EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts);
  EXPECT_GT(ctx.counters()[OpClass::FMul], 0u);
}

TEST(BatchContext, NoContextFallbackIsPreciseAndUncounted) {
  const auto a = positive_operands<float>(kN, 16),
             b = positive_operands<float>(kN, 17);
  std::vector<float> out(kN);
  gpu::batch_mul(a.data(), b.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_TRUE(same_bits(out[i], a[i] * b[i]));
}

// --- batch_apply: thread-count invariance under faults ----------------------

TEST(BatchApply, ThreadCountInvariantUnderFaultsAndGuard) {
  const IhwConfig cfg = faulted_guarded_config();
  const std::uint64_t n = 40000, chunk = 1024;
  const auto a = positive_operands<float>(static_cast<std::size_t>(n), 18),
             b = positive_operands<float>(static_cast<std::size_t>(n), 19);

  auto sweep = [&](int threads, std::vector<float>* out, FpContext* ctx) {
    ScopedContext active(*ctx);
    runtime::batch_apply(
        n, chunk,
        [&](std::uint64_t i0, std::uint64_t i1) {
          gpu::batch_mul(a.data() + i0, b.data() + i0, out->data() + i0,
                         static_cast<std::size_t>(i1 - i0));
          gpu::batch_add(a.data() + i0, out->data() + i0, out->data() + i0,
                         static_cast<std::size_t>(i1 - i0));
        },
        threads);
  };

  FpContext c1(cfg), c4(cfg);
  std::vector<float> o1(static_cast<std::size_t>(n)),
      o4(static_cast<std::size_t>(n));
  sweep(1, &o1, &c1);
  sweep(4, &o4, &c4);

  expect_span_matches("batch_apply", o4, o1);
  EXPECT_EQ(c1.counters().counts, c4.counters().counts);
  EXPECT_GT(c1.fault_counters().total_injected(), 0u);
  expect_fault_counters_eq(c1.fault_counters(), c4.fault_counters());
}

// --- app ports ---------------------------------------------------------------

void expect_grids_identical(const common::GridF& want,
                            const common::GridF& got) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(same_bits(want.data()[i], got.data()[i]))
        << "grid diverges at " << i;
}

template <typename Scalar, typename Batched>
void expect_app_identical(const IhwConfig& cfg, Scalar&& scalar,
                          Batched&& batched) {
  FpContext ref_ctx(cfg), ctx(cfg);
  common::GridF want, got;
  {
    ScopedContext active(ref_ctx);
    want = scalar();
  }
  {
    ScopedContext active(ctx);
    got = batched();
  }
  expect_grids_identical(want, got);
  EXPECT_EQ(ctx.counters().counts, ref_ctx.counters().counts);
  expect_fault_counters_eq(ref_ctx.fault_counters(), ctx.fault_counters());
}

// Every config a bench binary runs through the batched ports: precise and
// all_imprecise (fig15/16, table5/6, fig02, ablation_dvfs), plus the
// multiplier-only sweep of each mode over `mul_trs` (fig19 on HotSpot, fig20
// on CP).
std::vector<IhwConfig> bench_configs(std::initializer_list<int> mul_trs) {
  std::vector<IhwConfig> cfgs = {IhwConfig::precise(),
                                 IhwConfig::all_imprecise()};
  for (MulMode mode :
       {MulMode::MitchellLog, MulMode::MitchellFull, MulMode::BitTruncated})
    for (int tr : mul_trs) cfgs.push_back(IhwConfig::mul_only(mode, tr));
  return cfgs;
}

TEST(BatchApps, HotspotMatchesScalarSimRealOnBenchConfigs) {
  struct Shape {
    std::size_t rows, cols;
    bool steady_init;
  };
  std::vector<IhwConfig> cfgs = bench_configs({0, 10, 15, 17, 19, 21, 22});
  for (int th : {2, 4, 6, 8, 10, 12, 16, 20}) {  // ablation_add_th
    IhwConfig cfg;
    cfg.add_enabled = true;
    cfg.add_th = th;
    cfgs.push_back(cfg);
  }
  // Odd sizes exercise span edges; a relaxed (fig15) and a cold-start
  // (fig19) input.
  for (const Shape s : {Shape{37, 29, true}, Shape{33, 31, false}}) {
    apps::HotspotParams p;
    p.rows = s.rows;
    p.cols = s.cols;
    p.iterations = 3;
    p.steady_init = s.steady_init;
    const auto input = apps::make_hotspot_input(p, 7);
    for (const IhwConfig& cfg : cfgs) {
      SCOPED_TRACE(cfg.describe() + (s.steady_init ? " steady" : " cold"));
      expect_app_identical(
          cfg, [&] { return apps::run_hotspot<SimFloat>(p, input); },
          [&] { return apps::run_hotspot_batched(p, input); });
    }
  }
}

TEST(BatchApps, SradMatchesScalarSimRealOnBenchConfigs) {
  apps::SradParams p;
  p.rows = 39;
  p.cols = 37;
  p.iterations = 2;
  const auto input = apps::make_srad_input(p, 11);
  for (const IhwConfig& cfg : bench_configs({})) {
    SCOPED_TRACE(cfg.describe());
    expect_app_identical(
        cfg, [&] { return apps::run_srad<SimFloat>(p, input.image); },
        [&] { return apps::run_srad_batched(p, input.image); });
  }
}

TEST(BatchApps, CpMatchesScalarSimRealOnBenchConfigs) {
  apps::CpParams p;
  p.grid = 23;
  p.natoms = 17;
  const auto atoms = apps::make_cp_atoms(p, 13);
  for (const IhwConfig& cfg : bench_configs({0, 8, 12, 15, 17, 19, 21})) {
    SCOPED_TRACE(cfg.describe());
    expect_app_identical(
        cfg, [&] { return apps::run_cp<SimFloat>(p, atoms); },
        [&] { return apps::run_cp_batched(p, atoms); });
  }
}

TEST(BatchApps, ScreenedRunsDelegateToScalarPath) {
  apps::HotspotParams p;
  p.rows = 32;
  p.cols = 32;
  p.iterations = 2;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 23);
  expect_app_identical(
      faulted_guarded_config(),
      [&] { return apps::run_hotspot<SimFloat>(p, input); },
      [&] { return apps::run_hotspot_batched(p, input); });
}

// Without a context the batched ports are the plain-float references that
// fig19/fig20 and ablation_add_th score against.
TEST(BatchApps, NoContextMatchesPlainFloat) {
  apps::HotspotParams hp;
  hp.rows = 35;
  hp.cols = 27;
  hp.iterations = 3;
  hp.steady_init = false;
  const auto hin = apps::make_hotspot_input(hp, 31);
  expect_grids_identical(apps::run_hotspot<float>(hp, hin),
                         apps::run_hotspot_batched(hp, hin));

  apps::SradParams sp;
  sp.rows = 39;
  sp.cols = 37;
  sp.iterations = 2;
  const auto sin = apps::make_srad_input(sp, 11);
  expect_grids_identical(apps::run_srad<float>(sp, sin.image),
                         apps::run_srad_batched(sp, sin.image));

  apps::CpParams cp;
  cp.grid = 16;
  cp.natoms = 12;
  const auto atoms = apps::make_cp_atoms(cp, 29);
  expect_grids_identical(apps::run_cp<float>(cp, atoms),
                         apps::run_cp_batched(cp, atoms));
}

// --- SimReal compound assignments (single-lookup fast path) -----------------

TEST(SimRealCompound, MatchesBinaryOperatorAndCountsOnce) {
  const IhwConfig cfg = IhwConfig::all_imprecise();
  FpContext ctx(cfg);
  ScopedContext active(ctx);

  SimFloat x(1.375f), y(2.5f);
  SimFloat via_binary = x + y;
  const std::uint64_t adds_before = ctx.counters()[OpClass::FAdd];
  SimFloat via_compound = x;
  via_compound += y;
  EXPECT_EQ(ctx.counters()[OpClass::FAdd], adds_before + 1);
  EXPECT_TRUE(same_bits(via_compound.value(), via_binary.value()));

  SimFloat d = x;
  d -= y;
  EXPECT_TRUE(same_bits(d.value(), (x - y).value()));
  SimFloat m = x;
  m *= y;
  EXPECT_TRUE(same_bits(m.value(), (x * y).value()));
  SimFloat q = x;
  q /= y;
  EXPECT_TRUE(same_bits(q.value(), (x / y).value()));
}

}  // namespace
}  // namespace ihw

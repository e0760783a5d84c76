// SIMD backend <-> baseline bit-identity (DESIGN.md §13): the dispatcher's
// detection/force/clamp semantics, exhaustive 16-bit-pattern cross-checks
// and randomized fuzz pinning every per-ISA build of a span loop -- the
// fused multiply-accumulate slots included, in place and out of place -- to
// the baseline build of the same loop (including NaN/Inf/signed-zero/subnormal
// operands and remainder-tail lanes), fault-injection op-index parity
// through GuardedDispatch::*_n per backend, and end-to-end app byte-identity
// across ISA levels and thread counts. Each non-scalar case skips cleanly on
// hosts that cannot execute its ISA, and the CTest suite re-runs this binary
// (and test_batch) under IHW_FORCE_ISA for every level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "apps/hotspot.h"
#include "fault/guarded_dispatch.h"
#include "gpu/context.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/simd/isa.h"
#include "runtime/parallel.h"

namespace ihw {
namespace {

using fault::FaultConfig;
using fault::GuardedDispatch;
using gpu::FpContext;
using gpu::ScopedContext;
using simd::IsaLevel;
using simd::ScopedIsa;

const IsaLevel kVectorLevels[] = {IsaLevel::kAvx2, IsaLevel::kAvx512};

bool same_bits(float a, float b) {
  std::uint32_t x, y;
  std::memcpy(&x, &a, sizeof(float));
  std::memcpy(&y, &b, sizeof(float));
  return x == y;
}

void expect_span_matches(const char* what, const char* isa,
                         const std::vector<float>& got,
                         const std::vector<float>& want,
                         const std::vector<float>& a,
                         const std::vector<float>& b) {
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " [" << isa << "] diverges at " << i << ": a=" << a[i]
        << " b=" << (i < b.size() ? b[i] : 0.0f) << " got " << got[i]
        << " want " << want[i] << " (bits got=" << fp::to_bits(got[i])
        << " want=" << fp::to_bits(want[i]) << ")";
}

/// Runs every dispatched float unit once per (a, b) operand set under
/// `level`, with forced-scalar reference runs of the same span wrappers
/// (the mac slots accumulate into c = b reversed). Exercises the whole
/// wrapper (clamping, keep-mask computation, dispatch) rather than the lane
/// in isolation.
void cross_check_units(IsaLevel level, const std::vector<float>& a,
                       const std::vector<float>& b) {
  const char* isa = simd::isa_name(level);
  const std::size_t n = a.size();
  std::vector<float> got(n), want(n);

  const auto check = [&](const char* what, auto&& run) {
    {
      ScopedIsa scalar(IsaLevel::kScalar);
      run(want.data());
    }
    {
      ScopedIsa forced(level);
      ASSERT_EQ(simd::isa_active(), level);
      run(got.data());
    }
    expect_span_matches(what, isa, got, want, a, b);
    if (::testing::Test::HasFatalFailure()) return;
  };

  for (int th : {1, 8, 23, 27}) {
    check("ifp_add_n", [&](float* out) {
      batch::ifp_add_n(a.data(), b.data(), out, n, th);
    });
    check("ifp_sub_n", [&](float* out) {
      batch::ifp_sub_n(a.data(), b.data(), out, n, th);
    });
  }
  check("ifp_mul_n",
        [&](float* out) { batch::ifp_mul_n(a.data(), b.data(), out, n); });
  for (int trunc : {0, 8, 16, 23}) {
    check("acfp_mul_n(log)", [&](float* out) {
      batch::acfp_mul_n(a.data(), b.data(), out, n, AcfpPath::Log, trunc);
    });
    check("trunc_mul_n", [&](float* out) {
      batch::trunc_mul_n(a.data(), b.data(), out, n, trunc);
    });
  }
  check("ircp_n", [&](float* out) { batch::ircp_n(a.data(), out, n); });

  // Fused multiply-accumulate slots, each both out-of-place and in place
  // (out == c, the GEMM tile accumulate). th = 0 selects the precise adder
  // with acc_trunc LSBs dropped; th >= 1 the TH-adder.
  const std::vector<float> c(b.rbegin(), b.rend());
  const auto check_mac = [&](const std::string& what, auto&& mac) {
    check(what.c_str(), [&](float* out) { mac(c.data(), out); });
    check((what + " out==c").c_str(), [&](float* out) {
      std::copy(c.begin(), c.end(), out);
      mac(out, out);
    });
  };
  for (int th : {0, 1, 8, 27}) {
    for (int acc_trunc : {0, 7}) {
      const std::string acc = " th=" + std::to_string(th) +
                              " acc_trunc=" + std::to_string(acc_trunc);
      check_mac("ifp_mac_n" + acc, [&](const float* cc, float* out) {
        batch::ifp_mac_n(a.data(), b.data(), cc, out, n, th, acc_trunc);
      });
      for (int trunc : {0, 8, 23}) {
        const std::string tr = acc + " trunc=" + std::to_string(trunc);
        check_mac("acfp_mac_n(log)" + tr, [&](const float* cc, float* out) {
          batch::acfp_mac_n(a.data(), b.data(), cc, out, n, AcfpPath::Log,
                            trunc, th, acc_trunc);
        });
        check_mac("trunc_mac_n" + tr, [&](const float* cc, float* out) {
          batch::trunc_mac_n(a.data(), b.data(), cc, out, n, trunc, th,
                             acc_trunc);
        });
      }
    }
  }
}

std::vector<float> from_bits_vec(const std::vector<std::uint32_t>& bits) {
  std::vector<float> v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    v[i] = fp::from_bits<float>(bits[i]);
  return v;
}

/// Random bit patterns with every IEEE special class mixed in (the
/// test_batch operand recipe).
std::vector<float> fuzz_operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<float> v(n);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min(),
                            1.0f,
                            -1.0f,
                            1.5f};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 8 == 0) {
      v[i] = specials[rng() % (sizeof(specials) / sizeof(float))];
    } else {
      v[i] = fp::from_bits<float>(static_cast<std::uint32_t>(rng()));
    }
  }
  return v;
}

// --- dispatcher semantics ----------------------------------------------------

TEST(SimdDispatch, NamesAndParsing) {
  EXPECT_STREQ(simd::isa_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx512), "avx512");
  IsaLevel l = IsaLevel::kScalar;
  EXPECT_TRUE(simd::isa_parse("avx2", &l));
  EXPECT_EQ(l, IsaLevel::kAvx2);
  EXPECT_FALSE(simd::isa_parse("AVX2", &l));
  EXPECT_FALSE(simd::isa_parse("", &l));
  EXPECT_FALSE(simd::isa_parse(nullptr, &l));
  EXPECT_EQ(l, IsaLevel::kAvx2);  // untouched on failure
}

/// Whether each of the table's kernel slots is non-null, in slot order.
std::vector<bool> filled_slots(const simd::KernelTable& t) {
  return {t.ifp_add_f32 != nullptr,      t.ifp_mul_f32 != nullptr,
          t.acfp_log_f32 != nullptr,     t.trunc_mul_f32 != nullptr,
          t.ircp_f32 != nullptr,         t.ifp_mac_f32 != nullptr,
          t.acfp_log_mac_f32 != nullptr, t.trunc_mac_f32 != nullptr};
}

TEST(SimdDispatch, ActiveTableMatchesLevelAndScalarIsAllNull) {
  EXPECT_STREQ(simd::kernels().name, simd::isa_name(simd::isa_active()));
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    const simd::KernelTable& t = simd::kernels();
    EXPECT_STREQ(t.name, "scalar");
    EXPECT_EQ(filled_slots(t), std::vector<bool>(8, false));
  }
  // Every supported vector level fills every slot.
  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    ScopedIsa forced(level);
    const simd::KernelTable& t = simd::kernels();
    EXPECT_STREQ(t.name, simd::isa_name(level));
    EXPECT_EQ(filled_slots(t), std::vector<bool>(8, true)) << t.name;
  }
}

TEST(SimdDispatch, ForceClampsToSupportedAndRestores) {
  const IsaLevel before = simd::isa_active();
  // AVX-512 lands on itself, AVX2, or scalar depending on the host, and the
  // installed level is always executable.
  const IsaLevel got = simd::isa_force(IsaLevel::kAvx512);
  EXPECT_TRUE(simd::isa_supported(got));
  EXPECT_EQ(got, simd::isa_active());
  simd::isa_force(before);
  EXPECT_EQ(simd::isa_active(), before);
}

TEST(SimdDispatch, EnvForceIsHonored) {
  // When the CTest env variants set IHW_FORCE_ISA, first-use initialization
  // must have installed the clamped parse of it (clamping, not the raw
  // request: an avx512 force on an avx2-only host runs avx2).
  const char* env = std::getenv("IHW_FORCE_ISA");
  if (env == nullptr) GTEST_SKIP() << "IHW_FORCE_ISA not set";
  IsaLevel want = IsaLevel::kScalar;
  ASSERT_TRUE(simd::isa_parse(env, &want)) << "bad IHW_FORCE_ISA: " << env;
  if (!simd::isa_supported(want))
    EXPECT_LT(static_cast<int>(simd::isa_active()), static_cast<int>(want));
  else
    EXPECT_EQ(simd::isa_active(), want);
}

TEST(SimdDispatch, BestSupportedIsExecutableAndActiveByDefault) {
  EXPECT_TRUE(simd::isa_supported(simd::isa_best_supported()));
}

// --- exhaustive 16-bit-pattern cross-checks ----------------------------------

/// Every 16-bit pattern, twice: in the high half (all sign/exponent
/// combinations and upper-fraction bits -- every special class) and in the
/// low half with a mid-range exponent splice (low-fraction/tail-bit
/// behaviour). Pairings rotate so each a-class meets aligned, sign-flipped,
/// and distant-exponent partners.
void run_exhaustive(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  constexpr std::size_t kN = 1u << 16;
  std::vector<std::uint32_t> hi(kN), lo(kN);
  for (std::size_t p = 0; p < kN; ++p) {
    hi[p] = static_cast<std::uint32_t>(p) << 16;
    lo[p] = 0x3F000000u | static_cast<std::uint32_t>(p);
  }
  const auto rotated = [](const std::vector<std::uint32_t>& v,
                          std::size_t by) {
    std::vector<std::uint32_t> r(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) r[i] = v[(i + by) % v.size()];
    return r;
  };
  for (std::size_t rot : {std::size_t{1}, std::size_t{0x8000},
                          std::size_t{257}}) {
    cross_check_units(level, from_bits_vec(hi), from_bits_vec(rotated(hi, rot)));
    if (::testing::Test::HasFatalFailure()) return;
    cross_check_units(level, from_bits_vec(lo), from_bits_vec(rotated(lo, rot)));
    if (::testing::Test::HasFatalFailure()) return;
    // High-half against low-half: large exponent gaps feed the adder's
    // vanishing-operand select and the multipliers' clamp windows.
    cross_check_units(level, from_bits_vec(hi), from_bits_vec(rotated(lo, rot)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimdExhaustive, Avx2) { run_exhaustive(IsaLevel::kAvx2); }
TEST(SimdExhaustive, Avx512) { run_exhaustive(IsaLevel::kAvx512); }

// --- randomized fuzz (specials mixed in, every tail length) ------------------

void run_fuzz(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  // Spans shorter than, equal to, and just off the vector width exercise the
  // remainder tails; 255/256/257 straddle the mac kernels' product block
  // (kMacBlock); the large spans exercise steady-state lanes.
  static_assert(batch::detail::kMacBlock == 256);
  std::uint64_t seed = 1000 + 17 * static_cast<std::uint64_t>(level);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{15}, std::size_t{16},
                        std::size_t{17}, std::size_t{31}, std::size_t{33},
                        std::size_t{255}, std::size_t{256}, std::size_t{257},
                        std::size_t{4096}, std::size_t{20011}}) {
    cross_check_units(level, fuzz_operands(n, seed), fuzz_operands(n, seed + 1));
    if (::testing::Test::HasFatalFailure()) return;
    seed += 2;
  }
}

TEST(SimdFuzz, Avx2) { run_fuzz(IsaLevel::kAvx2); }
TEST(SimdFuzz, Avx512) { run_fuzz(IsaLevel::kAvx512); }

// --- fault-injection op-index parity through GuardedDispatch -----------------

/// The screened guarded path runs the per-element scalar screen by design,
/// but the *unscreened* spans dispatch to the SIMD backends, and both paths
/// bump per-class op indices span-wise. Forcing different backends must
/// change neither the outputs nor a single fault counter.
void run_guarded_parity(IsaLevel level) {
  if (!simd::isa_supported(level))
    GTEST_SKIP() << simd::isa_name(level) << " not supported on this host";
  constexpr std::size_t kN = 20000;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_int_distribution<int> expo(-6, 6);
  std::vector<float> a(kN), b(kN), c(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
    b[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
    c[i] = static_cast<float>(std::ldexp(mant(rng), expo(rng)));
  }

  IhwConfig cfg = IhwConfig::all_imprecise();
  cfg.faults = FaultConfig::uniform(0.05, 1234);
  cfg.guard.enabled = true;

  const auto run = [&](IsaLevel isa, std::vector<float>* m,
                       std::vector<float>* s, std::vector<float>* f,
                       std::vector<float>* r, fault::FaultCounters* counters) {
    ScopedIsa forced(isa);
    GuardedDispatch gd(cfg);
    gd.begin_epoch(3);
    gd.mul_n(a.data(), b.data(), m->data(), kN);
    gd.add_n(m->data(), c.data(), s->data(), kN);
    gd.fma_n(a.data(), b.data(), c.data(), f->data(), kN);
    gd.rcp_n(a.data(), r->data(), kN);
    gd.end_launch();
    *counters = gd.counters();
  };

  std::vector<float> m1(kN), s1(kN), f1(kN), r1(kN);
  std::vector<float> m2(kN), s2(kN), f2(kN), r2(kN);
  fault::FaultCounters c1, c2;
  run(IsaLevel::kScalar, &m1, &s1, &f1, &r1, &c1);
  run(level, &m2, &s2, &f2, &r2, &c2);

  const char* isa = simd::isa_name(level);
  expect_span_matches("guarded mul_n", isa, m2, m1, a, b);
  expect_span_matches("guarded add_n", isa, s2, s1, a, b);
  expect_span_matches("guarded fma_n", isa, f2, f1, a, b);
  expect_span_matches("guarded rcp_n", isa, r2, r1, a, b);
  EXPECT_GT(c1.total_injected(), 0u);
  EXPECT_EQ(c1.injected, c2.injected);
  EXPECT_EQ(c1.guard_trips, c2.guard_trips);
  EXPECT_EQ(c1.degraded_epochs, c2.degraded_epochs);
  EXPECT_EQ(c1.run_degradations, c2.run_degradations);
  EXPECT_EQ(c1.retried_epochs, c2.retried_epochs);
}

TEST(SimdGuarded, FaultParityAvx2) { run_guarded_parity(IsaLevel::kAvx2); }
TEST(SimdGuarded, FaultParityAvx512) { run_guarded_parity(IsaLevel::kAvx512); }

// --- end-to-end app byte-identity across ISA x threads -----------------------

TEST(SimdApps, HotspotIdenticalAcrossIsaAndThreads) {
  apps::HotspotParams p;
  p.rows = 48;
  p.cols = 40;
  p.iterations = 3;
  p.steady_init = false;
  const auto input = apps::make_hotspot_input(p, 7);
  const IhwConfig cfg = IhwConfig::all_imprecise();

  common::GridF ref;
  gpu::PerfCounters ref_counters;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    runtime::ScopedThreads one(1);
    FpContext ctx(cfg);
    ScopedContext active(ctx);
    ref = apps::run_hotspot_batched(p, input);
    ref_counters = ctx.counters();
  }

  for (IsaLevel level : kVectorLevels) {
    if (!simd::isa_supported(level)) continue;
    for (int threads : {1, 2, 4}) {
      ScopedIsa forced(level);
      runtime::ScopedThreads t(threads);
      FpContext ctx(cfg);
      common::GridF got;
      {
        ScopedContext active(ctx);
        got = apps::run_hotspot_batched(p, input);
      }
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(same_bits(ref.data()[i], got.data()[i]))
            << "hotspot grid diverges at " << i << " under "
            << simd::isa_name(level) << " threads=" << threads;
      EXPECT_EQ(ctx.counters().counts, ref_counters.counts)
          << simd::isa_name(level) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ihw

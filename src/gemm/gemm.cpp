// Tile-GEMM engine (DESIGN.md §14). Two execution paths under one
// numerical contract:
//
//  - run(), unscreened: BLIS-style jc(nc) -> kc -> rows blocking per
//    row-block chunk, B panels packed into 64-byte-aligned SoA scratch, the
//    A element broadcast into a span, and the whole inner product issued as
//    fused multiply-accumulate spans (batch::*_mac_n -> AVX2/AVX-512
//    backends). Row blocks parallelize over runtime::batch_apply.
//  - run(), screened (faults or guard active), and reference(): the
//    canonical per-element schedule -- row epoch, j outer, k ascending --
//    through GuardedDispatch::mul, so every multiply consumes the same
//    (epoch, op index) fault label regardless of tile sizes or threads.
//
// Both paths evaluate, for every C element, the identical accumulation
// chain c_{k+1} = acc(mul(A[i,k], B[k,j]), c_k) with k ascending from a +0
// seed, which is what makes tiled and naive bit-identical by construction.
#include "gemm/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/aligned.h"
#include "gemm/abft.h"
#include "gpu/context.h"
#include "gpu/epoch.h"
#include "ihw/batch.h"
#include "ihw/dispatch.h"
#include "ihw/ifp_add.h"
#include "runtime/parallel.h"

namespace ihw::gemm {
namespace {

/// Fraction keep-mask of the kFp32Trunc accumulator (clamped so a canonical
/// qNaN survives, same rule as batch::mac_clamp).
std::uint32_t trunc_keep(int tr) {
  if (tr <= 0) return ~0u;
  if (tr > 22) tr = 22;
  return ~0u << tr;
}

/// Precise fp32 add with NaN canonicalization and result-LSB truncation --
/// the scalar form of the mac kernels' precise accumulation stage.
float canon_add(float p, float c, std::uint32_t keep) {
  return fp::from_bits<float>(batch::detail::precise_acc_lane<float>(
      fp::to_bits(p), fp::to_bits(c), keep));
}

/// One accumulate step of the non-wide policies.
float acc_scalar(float p, float c, const GemmConfig& g) {
  switch (g.accum) {
    case AccumMode::kIfpAdd: return ifp_add(p, c, g.accum_th);
    case AccumMode::kFp32Trunc: return canon_add(p, c, trunc_keep(g.accum_trunc));
    case AccumMode::kFp32:
    case AccumMode::kWideFp64: break;
  }
  return canon_add(p, c, ~0u);
}

/// The canonical per-element schedule for rows [r0, r1): the reference
/// semantics, also the screened path of run(). A loop over
/// detail::canonical_element, the single source of truth the ABFT recovery
/// path recomputes through (src/gemm/abft.cpp).
void canonical_rows(const float* A, const float* B, float* C, std::size_t N,
                    std::size_t K, const GemmConfig& g, std::uint64_t r0,
                    std::uint64_t r1) {
  for (std::uint64_t i = r0; i < r1; ++i) {
    float* crow = C + i * N;
    for (std::size_t j = 0; j < N; ++j)
      crow[j] = detail::canonical_element(A, B, N, K, i, j, g);
  }
}

/// The blocked fast path for rows [r0, r1): pack, broadcast, fused spans.
void row_block(const float* A, const float* B, float* C, std::size_t N,
               std::size_t K, const GemmConfig& g, const IhwConfig& icfg,
               std::size_t kc, std::size_t nc, std::uint64_t r0,
               std::uint64_t r1) {
  thread_local common::AlignedVector<float> bpanel, abcast, ptmp;
  thread_local common::AlignedVector<double> wacc;

  const bool wide = g.accum == AccumMode::kWideFp64;
  const std::size_t blk =
      static_cast<std::size_t>(std::max(1, g.accum_block));
  const int th_eff = g.accum == AccumMode::kIfpAdd ? g.accum_th : 0;
  const int tr_eff = g.accum == AccumMode::kFp32Trunc
                         ? std::min(std::max(g.accum_trunc, 0), 22)
                         : 0;
  const FpDispatch disp(icfg);

  for (std::size_t jc = 0; jc < N; jc += nc) {
    const std::size_t jn = std::min(nc, N - jc);
    if (abcast.size() < jn) abcast.resize(jn);
    if (ptmp.size() < jn) ptmp.resize(jn);
    if (wide && wacc.size() < jn) wacc.resize(jn);
    for (std::size_t k0 = 0; k0 < K; k0 += kc) {
      const std::size_t kn = std::min(kc, K - k0);
      // Pack the (kn x jn) B panel: contiguous SoA rows, one cache-line
      // aligned slab, so every mac span streams sequentially.
      if (bpanel.size() < kn * jn) bpanel.resize(kn * jn);
      for (std::size_t kk = 0; kk < kn; ++kk)
        std::copy_n(B + (k0 + kk) * N + jc, jn, bpanel.data() + kk * jn);

      for (std::uint64_t i = r0; i < r1; ++i) {
        const float* arow = A + i * K + k0;
        float* crow = C + i * N + jc;
        if (k0 == 0) std::fill_n(crow, jn, 0.0f);
        if (!wide) {
          for (std::size_t kk = 0; kk < kn; ++kk) {
            std::fill_n(abcast.data(), jn, arow[kk]);
            const float* brow = bpanel.data() + kk * jn;
            switch (icfg.mul_mode) {
              case MulMode::ImpreciseSimple:
                batch::ifp_mac_n(abcast.data(), brow, crow, crow, jn, th_eff,
                                 tr_eff);
                break;
              case MulMode::MitchellLog:
                batch::acfp_mac_n(abcast.data(), brow, crow, crow, jn,
                                  AcfpPath::Log, icfg.mul_trunc, th_eff,
                                  tr_eff);
                break;
              case MulMode::MitchellFull:
                batch::acfp_mac_n(abcast.data(), brow, crow, crow, jn,
                                  AcfpPath::Full, icfg.mul_trunc, th_eff,
                                  tr_eff);
                break;
              case MulMode::BitTruncated:
                batch::trunc_mac_n(abcast.data(), brow, crow, crow, jn,
                                   icfg.mul_trunc, th_eff, tr_eff);
                break;
              case MulMode::Precise:
                // No fused kernel for the precise multiply array: two-pass
                // (exact product span, then the policy accumulator).
                for (std::size_t j = 0; j < jn; ++j)
                  ptmp[j] = arow[kk] * brow[j];
                if (g.accum == AccumMode::kIfpAdd) {
                  batch::ifp_add_n(ptmp.data(), crow, crow, jn, g.accum_th);
                } else {
                  const std::uint32_t keep = trunc_keep(tr_eff);
                  for (std::size_t j = 0; j < jn; ++j)
                    crow[j] = canon_add(ptmp[j], crow[j], keep);
                }
                break;
            }
          }
        } else {
          // Wide accumulate: kc is a multiple of accum_block, so block
          // boundaries land on the same global k positions as the
          // reference chain. Products of one block sum into fp64 lanes,
          // then fold into the fp32 C row.
          for (std::size_t kb = 0; kb < kn; kb += blk) {
            const std::size_t bn = std::min(blk, kn - kb);
            std::fill_n(wacc.data(), jn, 0.0);
            for (std::size_t kk = kb; kk < kb + bn; ++kk) {
              std::fill_n(abcast.data(), jn, arow[kk]);
              disp.mul_n(abcast.data(), bpanel.data() + kk * jn, ptmp.data(),
                         jn);
              for (std::size_t j = 0; j < jn; ++j)
                wacc[j] += static_cast<double>(ptmp[j]);
            }
            for (std::size_t j = 0; j < jn; ++j)
              crow[j] = canon_add(static_cast<float>(wacc[j]), crow[j], ~0u);
          }
        }
      }
    }
  }
}

void bump_counters(gpu::FpContext* ctx, std::size_t M, std::size_t N,
                   std::size_t K) {
  if (ctx == nullptr) return;
  const std::uint64_t macs = static_cast<std::uint64_t>(M) * N * K;
  ctx->counters().bump(gpu::OpClass::FMul, macs);
  ctx->counters().bump(gpu::OpClass::FAdd, macs);
}

}  // namespace

namespace detail {

/// Multiplies go through the active context's guarded dispatch (precise
/// host mul with no context); the accumulator is policy-raw -- the matrix
/// unit's internal adder sits outside the voltage-overscaled multiply
/// array, so it neither faults nor screens.
float canonical_element(const float* A, const float* B, std::size_t N,
                        std::size_t K, std::size_t i, std::size_t j,
                        const GemmConfig& g) {
  auto* ctx = gpu::FpContext::current();
  const bool wide = g.accum == AccumMode::kWideFp64;
  const std::size_t blk = static_cast<std::size_t>(std::max(1, g.accum_block));
  const float* arow = A + i * K;
  float cacc = 0.0f;
  double w = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    const float a = arow[k];
    const float b = B[k * N + j];
    const float p = ctx ? ctx->guarded().mul(a, b) : a * b;
    if (wide) {
      w += static_cast<double>(p);
      if ((k + 1) % blk == 0 || k + 1 == K) {
        cacc = canon_add(static_cast<float>(w), cacc, ~0u);
        w = 0.0;
      }
    } else {
      cacc = acc_scalar(p, cacc, g);
    }
  }
  return cacc;
}

}  // namespace detail

std::string to_string(AccumMode m) {
  switch (m) {
    case AccumMode::kFp32: return "fp32";
    case AccumMode::kFp32Trunc: return "fp32_trunc";
    case AccumMode::kIfpAdd: return "ifp_add";
    case AccumMode::kWideFp64: return "wide_fp64";
  }
  return "?";
}

std::string to_string(AbftMode m) {
  switch (m) {
    case AbftMode::kOff: return "off";
    case AbftMode::kDetect: return "detect";
    case AbftMode::kRecover: return "recover";
  }
  return "?";
}

void run(const float* A, const float* B, float* C, int M, int N, int K,
         const GemmConfig& cfg) {
  if (M <= 0 || N <= 0) return;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  if (K <= 0) {  // empty chain: every element keeps its +0 seed
    std::fill_n(C, sM * sN, 0.0f);
    return;
  }
  const std::size_t sK = static_cast<std::size_t>(K);
  auto* caller = gpu::FpContext::current();
  const IhwConfig icfg = caller ? caller->config() : IhwConfig::precise();
  bump_counters(caller, sM, sN, sK);

  if (icfg.screened()) {
    // Canonical schedule, one row per epoch: fault draws and guard
    // decisions match reference() at any tile size and thread count.
    runtime::batch_apply(
        sM, 1,
        [&](std::uint64_t r0, std::uint64_t r1) {
          canonical_rows(A, B, C, sN, sK, cfg, r0, r1);
        },
        cfg.threads);
  } else {
    const std::size_t mc = static_cast<std::size_t>(std::max(1, cfg.mc));
    const std::size_t nc = static_cast<std::size_t>(std::max(1, cfg.nc));
    std::size_t kc = static_cast<std::size_t>(std::max(1, cfg.kc));
    if (cfg.accum == AccumMode::kWideFp64) {
      const std::size_t blk =
          static_cast<std::size_t>(std::max(1, cfg.accum_block));
      kc = std::max(blk, kc - kc % blk);  // align panel edges to wide blocks
    }
    runtime::batch_apply(
        sM, mc,
        [&](std::uint64_t r0, std::uint64_t r1) {
          row_block(A, B, C, sN, sK, cfg, icfg, kc, nc, r0, r1);
        },
        cfg.threads);
  }

  // ABFT checksum verification + localized recovery (DESIGN.md §15),
  // serial on the caller's thread so counters and any recovery recompute
  // are schedule-invariant.
  if (cfg.abft != AbftMode::kOff) abft::verify(A, B, C, M, N, K, cfg);
}

void reference(const float* A, const float* B, float* C, int M, int N, int K,
               const GemmConfig& cfg) {
  if (M <= 0 || N <= 0) return;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  if (K <= 0) {
    std::fill_n(C, sM * sN, 0.0f);
    return;
  }
  const std::size_t sK = static_cast<std::size_t>(K);
  bump_counters(gpu::FpContext::current(), sM, sN, sK);
  for (std::uint64_t i = 0; i < sM; ++i)
    gpu::run_epoch(i, [&] { canonical_rows(A, B, C, sN, sK, cfg, i, i + 1); });
  gpu::finish_launch();
}

}  // namespace ihw::gemm

#pragma once
// Span-level batched kernels for the imprecise datapaths: the SoA fast path
// under FpDispatch::add_n/mul_n/... (dispatch.h). Each kernel hoists the
// unit's structural parameters (TH, truncation, multiplier path) out of the
// loop and runs a branch-free, bit-parallel inner loop over the operand
// spans, so per-operation overhead (config resolution, dispatch branching,
// counter bumps) is paid once per span instead of once per element and the
// compiler can autovectorize the integer datapath.
//
// The lanes and span loops themselves live in ihw/lanes.inc, included below
// into batch::detail; the scalar units in ifp_add.h / ifp_mul.h /
// acfp_mul.h / trunc_mul.h / sfu.h remain the reference implementations
// (bit-identity contract and its tests: see lanes.inc). The Mitchell *full*
// path and the SFUs keep their scalar evaluation here (the full path runs a
// 128-bit fixed-point datapath, the SFUs are short double-precision
// polynomials behind out-of-line calls); their span kernels still amortize
// dispatch and counter overhead. Float ircp has a lane, but only the vector
// tables run it.
//
// Runtime ISA dispatch (DESIGN.md §13): each float span wrapper first
// consults the active simd::KernelTable. A non-null entry is the same
// lanes.inc loop compiled for AVX2 or AVX-512 and takes over the whole
// span. A null entry (the scalar table, every double lane, non-x86 builds)
// runs the baseline build of the loop here.
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ihw/acfp_mul.h"
#include "ihw/config.h"
#include "ihw/ifp_add.h"
#include "ihw/ifp_mul.h"
#include "ihw/sfu.h"
#include "ihw/simd/isa.h"
#include "ihw/trunc_mul.h"

namespace ihw::batch {

namespace detail {
#include "ihw/lanes.inc"
}  // namespace detail

/// Clamps the fused-kernel accumulator parameters to the contract of the
/// detail::mac_span loops and the SIMD table entries: th normalized to 0
/// (precise accumulate) or [1, frac_bits+4], acc_trunc to [0, frac_bits-1]
/// so a canonical qNaN always survives the keep mask. Returns the keep mask.
template <typename T>
inline fp::BitsOf<T> mac_clamp(int* th, int* acc_trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  if (*th >= 1) {
    if (*th > Tr::frac_bits + 4) *th = Tr::frac_bits + 4;
  } else {
    *th = 0;
  }
  if (*acc_trunc < 0) *acc_trunc = 0;
  if (*acc_trunc > Tr::frac_bits - 1) *acc_trunc = Tr::frac_bits - 1;
  return *acc_trunc == 0 ? ~B{0} : (~B{0} << *acc_trunc);
}

// --- span kernels (the FpDispatch *_n backends) ----------------------------

/// out[i] = ifp_add(a[i], b[i], th) (ifp_sub with subtract = true).
template <typename T>
void ifp_add_n(const T* a, const T* b, T* out, std::size_t n, int th,
               bool subtract = false) {
  using Tr = fp::FloatTraits<T>;
  if (th < 1) th = 1;
  if (th > Tr::frac_bits + 4) th = Tr::frac_bits + 4;
  const fp::BitsOf<T> flip = subtract ? Tr::sign_mask : fp::BitsOf<T>{0};
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_add_f32) return k(a, b, out, n, th, flip);
  }
  detail::ifp_add_span(a, b, out, n, th, flip);
}

template <typename T>
void ifp_sub_n(const T* a, const T* b, T* out, std::size_t n, int th) {
  ifp_add_n(a, b, out, n, th, /*subtract=*/true);
}

/// out[i] = ifp_mul(a[i], b[i]).
template <typename T>
void ifp_mul_n(const T* a, const T* b, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mul_f32) return k(a, b, out, n);
  }
  detail::ifp_mul_span(a, b, out, n);
}

/// out[i] = acfp_mul(a[i], b[i], path, trunc).
template <typename T>
void acfp_mul_n(const T* a, const T* b, T* out, std::size_t n, AcfpPath path,
                int trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  if (path == AcfpPath::Full) {
    // The full path's Ma*Mb cross term runs the 128-bit Mitchell datapath;
    // kept scalar (see header comment).
    for (std::size_t i = 0; i < n; ++i)
      out[i] = acfp_mul(a[i], b[i], AcfpPath::Full, trunc);
    return;
  }
  if (trunc < 0) trunc = 0;
  if (trunc > Tr::frac_bits) trunc = Tr::frac_bits;
  const B keep = trunc == Tr::frac_bits ? B{0}
                                        : (~B{0} << trunc) & Tr::frac_mask;
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().acfp_log_f32) return k(a, b, out, n, keep);
  }
  detail::acfp_log_span(a, b, out, n, keep);
}

/// out[i] = trunc_mul(a[i], b[i], trunc).
template <typename T>
void trunc_mul_n(const T* a, const T* b, T* out, std::size_t n, int trunc) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  if (trunc < 0) trunc = 0;
  if (trunc > Tr::frac_bits) trunc = Tr::frac_bits;
  const B keep = trunc == Tr::frac_bits ? B{0}
                                        : (~B{0} << trunc) & Tr::frac_mask;
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mul_f32) return k(a, b, out, n, keep);
  }
  detail::trunc_mul_span(a, b, out, n, keep);
}

// --- fused multiply-accumulate spans ---------------------------------------
// out[i] = acc(mul(a[i], b[i]), c[i]): the product never materializes as a
// span, so GEMM inner loops and the app hot loops save a full store/reload
// pass. The accumulator is policy-configurable (see detail::mac_span): the
// TH-adder when th >= 1, a precise fp add with `acc_trunc` result LSBs
// dropped otherwise (detail::precise_acc_lane). Element-wise bit-identical
// to the two-pass composition mul_n -> add stage by construction (both
// stages are pure bit functions); tests/test_batch.cpp enforces this. `out`
// may alias `c` (the in-place accumulate of a GEMM tile).

/// out[i] = acc(ifp_mul(a[i], b[i]), c[i]).
template <typename T>
void ifp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th, int acc_trunc = 0) {
  const fp::BitsOf<T> acc_keep = mac_clamp<T>(&th, &acc_trunc);
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().ifp_mac_f32)
      return k(a, b, c, out, n, th, acc_keep);
  }
  detail::ifp_mac_span(a, b, c, out, n, th, acc_keep);
}

/// out[i] = acc(acfp_mul(a[i], b[i], path, trunc), c[i]).
template <typename T>
void acfp_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                AcfpPath path, int trunc, int th, int acc_trunc = 0) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  const B acc_keep = mac_clamp<T>(&th, &acc_trunc);
  if (path == AcfpPath::Full) {
    // Full path stays scalar (128-bit Mitchell datapath, see header comment);
    // only the accumulate stage is fused.
    return detail::mac_span(c, out, n, th, acc_keep, [=](std::size_t i) {
      return fp::to_bits(acfp_mul(a[i], b[i], AcfpPath::Full, trunc));
    });
  }
  if (trunc < 0) trunc = 0;
  if (trunc > Tr::frac_bits) trunc = Tr::frac_bits;
  const B keep = trunc == Tr::frac_bits ? B{0}
                                        : (~B{0} << trunc) & Tr::frac_mask;
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().acfp_log_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  detail::acfp_log_mac_span(a, b, c, out, n, keep, th, acc_keep);
}

/// out[i] = acc(trunc_mul(a[i], b[i], trunc), c[i]).
template <typename T>
void trunc_mac_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
                 int trunc, int th, int acc_trunc = 0) {
  using Tr = fp::FloatTraits<T>;
  using B = fp::BitsOf<T>;
  const B acc_keep = mac_clamp<T>(&th, &acc_trunc);
  if (trunc < 0) trunc = 0;
  if (trunc > Tr::frac_bits) trunc = Tr::frac_bits;
  const B keep = trunc == Tr::frac_bits ? B{0}
                                        : (~B{0} << trunc) & Tr::frac_mask;
  if constexpr (std::is_same_v<T, float>) {
    if (auto* k = simd::kernels().trunc_mac_f32)
      return k(a, b, c, out, n, keep, th, acc_keep);
  }
  detail::trunc_mac_span(a, b, c, out, n, keep, th, acc_keep);
}

// --- SFU / division spans (scalar evaluation, hoisted dispatch) ------------

template <typename T>
void ifp_div_n(const T* a, const T* b, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ifp_div(a[i], b[i]);
}

template <typename T>
void ircp_n(const T* x, T* out, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    // The ircp lane runs only in the vector tables. The baseline keeps the
    // unit itself, so every ISA cross-check of this slot compares the lane
    // with ihw::ircp, and the per-ISA rcp gate keeps the reference its
    // floor was set against (DESIGN.md §13).
    if (auto* k = simd::kernels().ircp_f32) return k(x, out, n);
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = ircp(x[i]);
}

template <typename T>
void irsqrt_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = irsqrt(x[i]);
}

template <typename T>
void isqrt_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = isqrt(x[i]);
}

template <typename T>
void ilog2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ilog2(x[i]);
}

template <typename T>
void iexp2_n(const T* x, T* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = iexp2(x[i]);
}

/// out[i] = ifp_fma(a[i], b[i], c[i], th): the imprecise multiplier feeding
/// the TH-adder, now one pass through the fused mac kernel (bit-identical to
/// the old two-pass tile composition because both stages are pure bit
/// functions and the mac kernel chains the same two lanes).
template <typename T>
void ifp_fma_n(const T* a, const T* b, const T* c, T* out, std::size_t n,
               int th) {
  if (th < 1) th = 1;  // the fused kernel reads th < 1 as precise-accumulate
  ifp_mac_n(a, b, c, out, n, th);
}

}  // namespace ihw::batch

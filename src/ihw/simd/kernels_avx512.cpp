// Hand-vectorized AVX-512 backends of the float span kernels (DESIGN.md §13).
//
// Same lane-for-lane transcription of the scalar select chains in ihw/batch.h
// as kernels_avx2.cpp, at 16 lanes per iteration with mask-register
// predication replacing the blendv idiom: every scalar `cond ? yes : no`
// becomes a compare-to-__mmask16 plus one mask_blend, in the same precedence
// order, so bit-identity with the scalar reference holds by construction and
// is enforced by tests/test_simd.cpp. The 48-bit trunc_mul products use the
// same even/odd vpmuludq split as AVX2 (8 x 64-bit lanes per half), with
// _mm512_movm_epi64 (DQ) turning the carry masks back into lane vectors for
// the exponent adjustment.
//
// Requires F+BW+DQ+VL (the fixed Skylake-X-and-later server set; isa.cpp
// only installs this table when cpuid reports all four). Compiled with the
// matching -m flags plus -ffp-contract=off (the SFU datapath's double
// multiply/subtract must round separately, as the scalar reference does).
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "ihw/simd/isa.h"

namespace ihw::simd {
namespace {

constexpr int FB = 23;
constexpr std::uint32_t kExpMask = 0xFFu;
constexpr std::uint32_t kFracMask = 0x7FFFFFu;
constexpr std::uint32_t kSignMask = 0x80000000u;
constexpr std::uint32_t kHidden = 0x800000u;
constexpr std::uint32_t kInfBits = 0x7F800000u;
constexpr std::uint32_t kQnanBits = 0x7FC00000u;
constexpr int kBias = 127;

inline __m512i load16(const float* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}
inline void store16(float* p, __m512i v) {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}
// The n % 16 tail of a span runs one more vector step through these masked
// forms, which touch only its first m lanes. The tail must not fall back to
// the scalar lanes of ihw/batch.h: instantiating those shared inline
// templates here would emit weak copies compiled for AVX-512, and the
// linker may keep that copy for the portable callers too.
inline __mmask16 tail_mask(std::size_t m) {
  return static_cast<__mmask16>((1u << m) - 1u);
}
inline __m512i load16(const float* p, std::size_t m) {
  return _mm512_maskz_loadu_epi32(tail_mask(m), p);
}
inline void store16(float* p, __m512i v, std::size_t m) {
  _mm512_mask_storeu_epi32(p, tail_mask(m), v);
}
/// r = mask ? yes : no, per 32-bit lane.
inline __m512i sel(__m512i no, __m512i yes, __mmask16 mask) {
  return _mm512_mask_blend_epi32(mask, no, yes);
}
inline __m512i sel64(__m512i no, __m512i yes, __mmask8 mask) {
  return _mm512_mask_blend_epi64(mask, no, yes);
}

/// Per-lane IEEE fields and class masks shared by every kernel.
struct Fields16 {
  __m512i e;     // biased exponent field
  __m512i frac;  // raw fraction field
  __mmask16 is_nan, is_inf, is_zero;  // is_zero: after flush (e==0)
};

inline Fields16 fields(__m512i bits) {
  const __m512i expm = _mm512_set1_epi32(static_cast<int>(kExpMask));
  Fields16 f;
  f.e = _mm512_and_si512(_mm512_srli_epi32(bits, FB), expm);
  f.frac = _mm512_and_si512(bits, _mm512_set1_epi32(static_cast<int>(kFracMask)));
  const __mmask16 is_expmax = _mm512_cmpeq_epi32_mask(f.e, expm);
  const __mmask16 frac_zero =
      _mm512_cmpeq_epi32_mask(f.frac, _mm512_setzero_si512());
  f.is_nan = is_expmax & static_cast<__mmask16>(~frac_zero);
  f.is_inf = is_expmax & frac_zero;
  f.is_zero = _mm512_cmpeq_epi32_mask(f.e, _mm512_setzero_si512());
  return f;
}

/// Subnormal-flushed fraction (e == 0 lanes read as 0).
inline __m512i flushed(const Fields16& f) {
  return _mm512_maskz_mov_epi32(static_cast<__mmask16>(~f.is_zero), f.frac);
}

/// Shared special-value select chain of the three multiplier datapaths
/// (mirrors detail::mul_specials in batch.h).
inline __m512i mul_specials(__m512i ab, __m512i bb, const Fields16& fa,
                            const Fields16& fb, __m512i core) {
  const __m512i sign = _mm512_and_si512(
      _mm512_xor_si512(ab, bb), _mm512_set1_epi32(static_cast<int>(kSignMask)));
  const __mmask16 any_zero = fa.is_zero | fb.is_zero;
  const __mmask16 any_inf = fa.is_inf | fb.is_inf;
  const __mmask16 any_nan = fa.is_nan | fb.is_nan;
  const __m512i qnan = _mm512_set1_epi32(static_cast<int>(kQnanBits));
  __m512i r = core;
  r = sel(r, sign, any_zero);
  r = sel(r, _mm512_or_si512(sign, _mm512_set1_epi32(static_cast<int>(kInfBits))),
          any_inf);
  r = sel(r, qnan, any_inf & any_zero);
  r = sel(r, qnan, any_nan);
  return r;
}

/// Exponent-window clamp shared by the multiplier cores.
inline __m512i clamp_exp(__m512i core, __m512i biased, __m512i sign) {
  core = sel(core, sign,
             _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(1), biased));
  core = sel(core,
             _mm512_or_si512(sign, _mm512_set1_epi32(static_cast<int>(kInfBits))),
             _mm512_cmpgt_epi32_mask(biased, _mm512_set1_epi32(kExpMask - 1)));
  return core;
}

/// Assembles sign | exp | frac from in-range lane fields.
inline __m512i compose(__m512i sign, __m512i biased, __m512i frac) {
  const __m512i e = _mm512_slli_epi32(
      _mm512_and_si512(biased, _mm512_set1_epi32(static_cast<int>(kExpMask))), FB);
  return _mm512_or_si512(sign, _mm512_or_si512(e, frac));
}

// --- ifp_mul ---------------------------------------------------------------

inline __m512i ifp_mul16(__m512i ab, __m512i bb) {
  const Fields16 A = fields(ab), B = fields(bb);
  const __m512i fa = flushed(A), fb = flushed(B);
  const __m512i sign = _mm512_and_si512(
      _mm512_xor_si512(ab, bb), _mm512_set1_epi32(static_cast<int>(kSignMask)));

  const __m512i s = _mm512_add_epi32(fa, fb);
  const __mmask16 cin =
      _mm512_cmpgt_epi32_mask(s, _mm512_set1_epi32(static_cast<int>(kHidden) - 1));
  const __m512i carried = _mm512_srli_epi32(
      _mm512_sub_epi32(s, _mm512_set1_epi32(static_cast<int>(kHidden))), 1);
  const __m512i frac = sel(s, carried, cin);
  __m512i biased = _mm512_add_epi32(_mm512_add_epi32(A.e, B.e),
                                    _mm512_set1_epi32(-kBias));
  biased = _mm512_mask_add_epi32(biased, cin, biased, _mm512_set1_epi32(1));
  const __m512i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void ifp_mul_f32(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, ifp_mul16(load16(a + i), load16(b + i)));
  if (const std::size_t m = n - i)
    store16(out + i, ifp_mul16(load16(a + i, m), load16(b + i, m)), m);
}

// --- acfp_mul, Mitchell log path -------------------------------------------

inline __m512i acfp_log16(__m512i ab, __m512i bb, __m512i keep) {
  const Fields16 A = fields(ab), B = fields(bb);
  const __m512i fa = _mm512_and_si512(flushed(A), keep);
  const __m512i fb = _mm512_and_si512(flushed(B), keep);
  const __m512i sign = _mm512_and_si512(
      _mm512_xor_si512(ab, bb), _mm512_set1_epi32(static_cast<int>(kSignMask)));

  const __m512i s = _mm512_add_epi32(fa, fb);
  const __mmask16 cin =
      _mm512_cmpgt_epi32_mask(s, _mm512_set1_epi32(static_cast<int>(kHidden) - 1));
  // No normalization shift: the 2^x ~ 1+x antilog reinterprets the overflow.
  const __m512i frac =
      sel(s, _mm512_sub_epi32(s, _mm512_set1_epi32(static_cast<int>(kHidden))),
          cin);
  __m512i biased = _mm512_add_epi32(_mm512_add_epi32(A.e, B.e),
                                    _mm512_set1_epi32(-kBias));
  biased = _mm512_mask_add_epi32(biased, cin, biased, _mm512_set1_epi32(1));
  const __m512i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void acfp_log_f32(const float* a, const float* b, float* out, std::size_t n,
                  std::uint32_t keep) {
  const __m512i keepv = _mm512_set1_epi32(static_cast<int>(keep));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, acfp_log16(load16(a + i), load16(b + i), keepv));
  if (const std::size_t m = n - i)
    store16(out + i, acfp_log16(load16(a + i, m), load16(b + i, m), keepv), m);
}

// --- trunc_mul -------------------------------------------------------------

inline __m512i trunc_mul16(__m512i ab, __m512i bb, __m512i keep) {
  const Fields16 A = fields(ab), B = fields(bb);
  const __m512i hidden = _mm512_set1_epi32(static_cast<int>(kHidden));
  const __m512i siga = _mm512_or_si512(flushed(A), hidden);
  const __m512i sigb = _mm512_or_si512(flushed(B), hidden);
  const __m512i sign = _mm512_and_si512(
      _mm512_xor_si512(ab, bb), _mm512_set1_epi32(static_cast<int>(kSignMask)));

  // 24x24 -> 48-bit exact products on the even and odd 32-bit lanes (8 x
  // 64-bit lanes each through vpmuludq), shift/mask on 64-bit lanes, then
  // recombine into 32-bit lanes.
  const __m512i pe = _mm512_mul_epu32(siga, sigb);
  const __m512i po = _mm512_mul_epu32(_mm512_srli_epi64(siga, 32),
                                      _mm512_srli_epi64(sigb, 32));
  const __m512i thr = _mm512_set1_epi64((std::int64_t{1} << (2 * FB + 1)) - 1);
  const __mmask8 cine = _mm512_cmpgt_epi64_mask(pe, thr);  // p >= 2^(2*FB+1)
  const __mmask8 cino = _mm512_cmpgt_epi64_mask(po, thr);
  const __m512i shft = _mm512_set1_epi64(FB);
  const __m512i shft1 = _mm512_set1_epi64(FB + 1);
  const __m512i frace = _mm512_srlv_epi64(pe, sel64(shft, shft1, cine));
  const __m512i fraco = _mm512_srlv_epi64(po, sel64(shft, shft1, cino));
  const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFll);
  __m512i frac = _mm512_or_si512(_mm512_and_si512(frace, low32),
                                 _mm512_slli_epi64(fraco, 32));
  frac = _mm512_and_si512(
      _mm512_and_si512(frac, _mm512_set1_epi32(static_cast<int>(kFracMask))),
      keep);
  // Carry masks back to 32-bit lane vectors (movm: DQ) for the exponent add.
  const __m512i cin =
      _mm512_or_si512(_mm512_and_si512(_mm512_movm_epi64(cine), low32),
                      _mm512_slli_epi64(_mm512_movm_epi64(cino), 32));

  __m512i biased = _mm512_add_epi32(_mm512_add_epi32(A.e, B.e),
                                    _mm512_set1_epi32(-kBias));
  biased = _mm512_sub_epi32(biased, cin);  // cin lanes are -1
  const __m512i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void trunc_mul_f32(const float* a, const float* b, float* out, std::size_t n,
                   std::uint32_t keep) {
  const __m512i keepv = _mm512_set1_epi32(static_cast<int>(keep));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, trunc_mul16(load16(a + i), load16(b + i), keepv));
  if (const std::size_t m = n - i)
    store16(out + i, trunc_mul16(load16(a + i, m), load16(b + i, m), keepv), m);
}

// --- ifp_add ---------------------------------------------------------------

inline __m512i ifp_add16(__m512i ab, __m512i bb, int th) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i signm = _mm512_set1_epi32(static_cast<int>(kSignMask));
  const Fields16 A = fields(ab), B = fields(bb);
  const __m512i fa = flushed(A), fb = flushed(B);
  const __m512i sa = _mm512_and_si512(ab, signm);
  const __m512i sb = _mm512_and_si512(bb, signm);

  // Compare-and-swap so x is the larger magnitude (exponent field, then
  // fraction field), exactly as the scalar lane orders it.
  const __mmask16 swap =
      _mm512_cmpgt_epi32_mask(B.e, A.e) |
      (_mm512_cmpeq_epi32_mask(B.e, A.e) & _mm512_cmpgt_epi32_mask(fb, fa));
  const __m512i ex = sel(A.e, B.e, swap);
  const __m512i fx = sel(fa, fb, swap);
  const __m512i fy = sel(fb, fa, swap);
  const __m512i sx = sel(sa, sb, swap);
  const __m512i sy = sel(sb, sa, swap);
  const __m512i d = _mm512_sub_epi32(ex, sel(B.e, A.e, swap));

  // (TH+1)-bit alignment with the clamped shift pairs of the scalar lane.
  const int drop = FB - th;
  const int dpos = drop > 0 ? drop : 0;
  const int dneg = drop < 0 ? -drop : 0;
  const __m512i hidden = _mm512_set1_epi32(static_cast<int>(kHidden));
  const __m512i sigx = _mm512_or_si512(hidden, fx);
  const __m512i sigy = _mm512_or_si512(hidden, fy);
  const __m512i sh = _mm512_add_epi32(d, _mm512_set1_epi32(drop));
  const __m512i sh31 = _mm512_set1_epi32(31);
  const __m512i shpos = _mm512_min_epi32(_mm512_max_epi32(sh, zero), sh31);
  const __m512i shneg =
      _mm512_min_epi32(_mm512_max_epi32(_mm512_sub_epi32(zero, sh), zero), sh31);
  const __m512i saligned = _mm512_sll_epi32(
      _mm512_srl_epi32(sigx, _mm_cvtsi32_si128(dpos)), _mm_cvtsi32_si128(dneg));
  const __m512i baligned = _mm512_sllv_epi32(_mm512_srlv_epi32(sigy, shpos), shneg);
  const __mmask16 esub = _mm512_cmpneq_epi32_mask(sx, sy);
  const __m512i s = sel(_mm512_add_epi32(saligned, baligned),
                        _mm512_sub_epi32(saligned, baligned), esub);
  const __mmask16 s_zero = _mm512_cmpeq_epi32_mask(s, zero);

  // Leading-one position p = bit_width(s|1) - 1: fill below the MSB, isolate
  // it, and read its exponent via an exact power-of-two int->float convert.
  __m512i v = _mm512_or_si512(s, _mm512_set1_epi32(1));
  v = _mm512_or_si512(v, _mm512_srli_epi32(v, 1));
  v = _mm512_or_si512(v, _mm512_srli_epi32(v, 2));
  v = _mm512_or_si512(v, _mm512_srli_epi32(v, 4));
  v = _mm512_or_si512(v, _mm512_srli_epi32(v, 8));
  v = _mm512_or_si512(v, _mm512_srli_epi32(v, 16));
  const __m512i msb = _mm512_sub_epi32(v, _mm512_srli_epi32(v, 1));
  const __m512i p = _mm512_sub_epi32(
      _mm512_srli_epi32(_mm512_castps_si512(_mm512_cvtepi32_ps(msb)), FB),
      _mm512_set1_epi32(kBias));

  const __m512i body = _mm512_xor_si512(s, msb);
  const __m512i fbv = _mm512_set1_epi32(FB);
  const __m512i lsh = _mm512_max_epi32(_mm512_sub_epi32(fbv, p), zero);
  const __m512i rsh = _mm512_max_epi32(_mm512_sub_epi32(p, fbv), zero);
  const __m512i frac = _mm512_srlv_epi32(_mm512_sllv_epi32(body, lsh), rsh);
  const __m512i biased =
      _mm512_add_epi32(ex, _mm512_sub_epi32(p, _mm512_set1_epi32(th)));
  __m512i core = compose(
      sx, biased,
      _mm512_and_si512(frac, _mm512_set1_epi32(static_cast<int>(kFracMask))));
  core = clamp_exp(core, biased, sx);

  // Select chain, lowest to highest precedence (scalar lane order).
  const __m512i qnan = _mm512_set1_epi32(static_cast<int>(kQnanBits));
  const __mmask16 sign_ne = _mm512_cmpneq_epi32_mask(sa, sb);
  __m512i r = core;
  r = sel(r, zero, s_zero);
  r = sel(r, _mm512_or_si512(sx, _mm512_or_si512(_mm512_slli_epi32(ex, FB), fx)),
          _mm512_cmpgt_epi32_mask(d, _mm512_set1_epi32(th - 1)));
  r = sel(r, sel(ab, sa, A.is_zero), B.is_zero);
  r = sel(r, sel(bb, sb, B.is_zero), A.is_zero);
  r = sel(r, _mm512_and_si512(sa, sb), A.is_zero & B.is_zero);
  r = sel(r, bb, B.is_inf);
  r = sel(r, ab, A.is_inf);
  r = sel(r, qnan, A.is_inf & B.is_inf & sign_ne);
  r = sel(r, qnan, A.is_nan | B.is_nan);
  return r;
}

void ifp_add_f32(const float* a, const float* b, float* out, std::size_t n,
                 int th, std::uint32_t flip) {
  const __m512i flipv = _mm512_set1_epi32(static_cast<int>(flip));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i,
            ifp_add16(load16(a + i), _mm512_xor_si512(load16(b + i), flipv), th));
  if (const std::size_t m = n - i)
    store16(out + i,
            ifp_add16(load16(a + i, m),
                      _mm512_xor_si512(load16(b + i, m), flipv), th),
            m);
}

// --- fused multiply-accumulate ---------------------------------------------

/// Accumulation stage of the fused kernels (mirrors detail::acc_lane in
/// batch.h): TH-adder when th >= 1, else a precise vaddps whose result is
/// masked by acc_keep with NaN sums canonicalized to qNaN.
inline __m512i acc16(__m512i pb, __m512i cb, int th, __m512i acc_keep) {
  if (th >= 1) return ifp_add16(pb, cb, th);
  const __m512 s =
      _mm512_add_ps(_mm512_castsi512_ps(pb), _mm512_castsi512_ps(cb));
  const __m512i r = _mm512_and_si512(_mm512_castps_si512(s), acc_keep);
  const __mmask16 nan = _mm512_cmp_ps_mask(s, s, _CMP_UNORD_Q);
  return sel(r, _mm512_set1_epi32(static_cast<int>(kQnanBits)), nan);
}

void ifp_mac_f32(const float* a, const float* b, const float* c, float* out,
                 std::size_t n, int th, std::uint32_t acc_keep) {
  const __m512i keepv = _mm512_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, acc16(ifp_mul16(load16(a + i), load16(b + i)),
                           load16(c + i), th, keepv));
  if (const std::size_t m = n - i)
    store16(out + i,
            acc16(ifp_mul16(load16(a + i, m), load16(b + i, m)),
                  load16(c + i, m), th, keepv),
            m);
}

void acfp_log_mac_f32(const float* a, const float* b, const float* c,
                      float* out, std::size_t n, std::uint32_t keep, int th,
                      std::uint32_t acc_keep) {
  const __m512i mkeepv = _mm512_set1_epi32(static_cast<int>(keep));
  const __m512i akeepv = _mm512_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, acc16(acfp_log16(load16(a + i), load16(b + i), mkeepv),
                           load16(c + i), th, akeepv));
  if (const std::size_t m = n - i)
    store16(out + i,
            acc16(acfp_log16(load16(a + i, m), load16(b + i, m), mkeepv),
                  load16(c + i, m), th, akeepv),
            m);
}

void trunc_mac_f32(const float* a, const float* b, const float* c, float* out,
                   std::size_t n, std::uint32_t keep, int th,
                   std::uint32_t acc_keep) {
  const __m512i mkeepv = _mm512_set1_epi32(static_cast<int>(keep));
  const __m512i akeepv = _mm512_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(out + i, acc16(trunc_mul16(load16(a + i), load16(b + i), mkeepv),
                           load16(c + i), th, akeepv));
  if (const std::size_t m = n - i)
    store16(out + i,
            acc16(trunc_mul16(load16(a + i, m), load16(b + i, m), mkeepv),
                  load16(c + i, m), th, akeepv),
            m);
}

// --- ircp (the SFU span path) ----------------------------------------------

/// One half (8 lanes) of the reciprocal-SFU double datapath: the identical
/// mul/add/sub sequence of the scalar ircp per 64-bit lane (the one rounded
/// multiply and subtract stay separate ops under -ffp-contract=off), then
/// scaling by an exactly-constructed power of two stands in for ldexp.
inline __m256 ircp_half(__m256i frac8, __m256i biased8) {
  const __m512d fracd = _mm512_cvtepi32_pd(frac8);
  const __m512d xr = _mm512_mul_pd(
      _mm512_add_pd(_mm512_set1_pd(1.0),
                    _mm512_mul_pd(fracd, _mm512_set1_pd(0x1p-23))),
      _mm512_set1_pd(0.5));
  const __m512d approx = _mm512_sub_pd(
      _mm512_set1_pd(2.823), _mm512_mul_pd(_mm512_set1_pd(1.882), xr));
  // ldexp(approx, -(e+1)) with e = biased - 127: multiply by 2^(126-biased),
  // exact because scale and product stay normal doubles for every float
  // exponent field (biased in [0, 255] -> scale exponent in [-129, 126]).
  __m512i k = _mm512_cvtepi32_epi64(biased8);
  k = _mm512_sub_epi64(_mm512_set1_epi64(126 + 1023), k);
  const __m512d scale = _mm512_castsi512_pd(_mm512_slli_epi64(k, 52));
  return _mm512_cvtpd_ps(_mm512_mul_pd(approx, scale));
}

inline __m512i ircp16(__m512i xb) {
  const Fields16 X = fields(xb);
  const __m512i sign =
      _mm512_and_si512(xb, _mm512_set1_epi32(static_cast<int>(kSignMask)));

  const __m256 lo = ircp_half(_mm512_castsi512_si256(X.frac),
                              _mm512_castsi512_si256(X.e));
  const __m256 hi = ircp_half(_mm512_extracti64x4_epi64(X.frac, 1),
                              _mm512_extracti64x4_epi64(X.e, 1));
  __m512i r = _mm512_castps_si512(
      _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1));
  // (float)(sign ? -y : y) == sign-bit OR for the positive converted value.
  r = _mm512_or_si512(r, sign);
  // flush_subnormal on the result (sign preserved).
  const __m512i re = _mm512_and_si512(
      _mm512_srli_epi32(r, FB), _mm512_set1_epi32(static_cast<int>(kExpMask)));
  r = sel(r, sign, _mm512_cmpeq_epi32_mask(re, _mm512_setzero_si512()));

  // Specials in scalar precedence order: zero (incl. flushed subnormal
  // inputs) -> signed inf, inf -> signed zero, NaN -> canonical qNaN.
  r = sel(r,
          _mm512_or_si512(sign, _mm512_set1_epi32(static_cast<int>(kInfBits))),
          X.is_zero);
  r = sel(r, sign, X.is_inf);
  r = sel(r, _mm512_set1_epi32(static_cast<int>(kQnanBits)), X.is_nan);
  return r;
}

void ircp_f32(const float* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) store16(out + i, ircp16(load16(x + i)));
  if (const std::size_t m = n - i)
    store16(out + i, ircp16(load16(x + i, m)), m);
}

}  // namespace

namespace detail {
const KernelTable kAvx512Table = {
    "avx512",      &ifp_add_f32,   &ifp_mul_f32,
    &acfp_log_f32, &trunc_mul_f32, &ircp_f32,
    &ifp_mac_f32,  &acfp_log_mac_f32, &trunc_mac_f32,
};
}  // namespace detail

}  // namespace ihw::simd

// Hand-vectorized AVX2 backends of the float span kernels (DESIGN.md §13).
//
// Every function here is a transcription of the corresponding scalar lane in
// ihw/batch.h into 8-lane 32-bit integer intrinsics: the same flush /
// compare-and-swap / clamped-shift-pair / select-chain structure, evaluated
// per lane with blends in the same precedence order, so the result is
// bit-identical to the scalar reference by construction (and enforced input-
// exhaustively by tests/test_simd.cpp). Anything this file cannot express
// exactly stays out of the table and runs the scalar loop.
//
// Two idioms replace scalar constructs that have no direct 256-bit form:
//  - std::bit_width: an or-cascade fills every bit below the MSB, v-(v>>1)
//    isolates it, and int->float conversion (exact for powers of two) reads
//    the position out of the exponent field.
//  - the 48-bit significand products of trunc_mul: vpmuludq on the even and
//    odd 32-bit lanes yields two 4x64 product vectors whose results are
//    recombined into 32-bit lanes after the shift/mask stage.
//
// This translation unit is compiled with -mavx2 (plus -ffp-contract=off: the
// SFU path multiplies in double and a contracted fma would change its
// rounding) and is only ever called after cpuid detection admits AVX2, so
// the rest of the library keeps the portable baseline ISA.
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

inline __m256i load8(const float* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store8(float* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
// The n % 8 tail of a span runs one more vector step through these masked
// forms, which touch only its first m lanes. The tail must not fall back to
// the scalar lanes of ihw/batch.h: instantiating those shared inline
// templates here would emit weak copies compiled for AVX2, and the linker
// may keep that copy for the portable callers too.
inline __m256i tail_mask(std::size_t m) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(m)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline __m256i load8(const float* p, std::size_t m) {
  return _mm256_maskload_epi32(reinterpret_cast<const int*>(p), tail_mask(m));
}
inline void store8(float* p, __m256i v, std::size_t m) {
  _mm256_maskstore_epi32(reinterpret_cast<int*>(p), tail_mask(m), v);
}
/// r = mask ? yes : no, with `mask` an all-ones-per-lane compare result.
inline __m256i sel(__m256i no, __m256i yes, __m256i mask) {
  return _mm256_blendv_epi8(no, yes, mask);
}
inline __m256i bnot(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi32(-1));
}

/// Per-lane IEEE fields and class masks shared by every kernel.
struct Fields8 {
  __m256i e;     // biased exponent field
  __m256i frac;  // raw fraction field
  __m256i is_expmax, is_nan, is_inf, is_zero;  // is_zero: after flush (e==0)
};

inline Fields8 fields(__m256i bits) {
  const __m256i expm = _mm256_set1_epi32(static_cast<int>(kExpMask));
  const __m256i zero = _mm256_setzero_si256();
  Fields8 f;
  f.e = _mm256_and_si256(_mm256_srli_epi32(bits, FB), expm);
  f.frac = _mm256_and_si256(bits, _mm256_set1_epi32(static_cast<int>(kFracMask)));
  f.is_expmax = _mm256_cmpeq_epi32(f.e, expm);
  const __m256i frac_zero = _mm256_cmpeq_epi32(f.frac, zero);
  f.is_nan = _mm256_andnot_si256(frac_zero, f.is_expmax);
  f.is_inf = _mm256_and_si256(f.is_expmax, frac_zero);
  f.is_zero = _mm256_cmpeq_epi32(f.e, zero);
  return f;
}

/// Subnormal-flushed fraction (e == 0 lanes read as 0).
inline __m256i flushed(const Fields8& f) {
  return _mm256_andnot_si256(f.is_zero, f.frac);
}

/// Shared special-value select chain of the three multiplier datapaths
/// (mirrors detail::mul_specials in batch.h).
inline __m256i mul_specials(__m256i ab, __m256i bb, const Fields8& fa,
                            const Fields8& fb, __m256i core) {
  const __m256i sign = _mm256_and_si256(
      _mm256_xor_si256(ab, bb), _mm256_set1_epi32(static_cast<int>(kSignMask)));
  const __m256i any_zero = _mm256_or_si256(fa.is_zero, fb.is_zero);
  const __m256i any_inf = _mm256_or_si256(fa.is_inf, fb.is_inf);
  const __m256i any_nan = _mm256_or_si256(fa.is_nan, fb.is_nan);
  const __m256i qnan = _mm256_set1_epi32(static_cast<int>(kQnanBits));
  __m256i r = core;
  r = sel(r, sign, any_zero);
  r = sel(r, _mm256_or_si256(sign, _mm256_set1_epi32(static_cast<int>(kInfBits))),
          any_inf);
  r = sel(r, qnan, _mm256_and_si256(any_inf, any_zero));
  r = sel(r, qnan, any_nan);
  return r;
}

/// Exponent-window clamp shared by the multiplier cores: underflow lanes
/// (biased <= 0) flush to the signed zero, overflow lanes (biased >= 255)
/// saturate to the signed infinity.
inline __m256i clamp_exp(__m256i core, __m256i biased, __m256i sign) {
  const __m256i one = _mm256_set1_epi32(1);
  core = sel(core, sign, _mm256_cmpgt_epi32(one, biased));
  core = sel(core,
             _mm256_or_si256(sign, _mm256_set1_epi32(static_cast<int>(kInfBits))),
             _mm256_cmpgt_epi32(biased, _mm256_set1_epi32(kExpMask - 1)));
  return core;
}

/// Assembles sign | exp | frac from in-range lane fields.
inline __m256i compose(__m256i sign, __m256i biased, __m256i frac) {
  const __m256i e = _mm256_slli_epi32(
      _mm256_and_si256(biased, _mm256_set1_epi32(static_cast<int>(kExpMask))), FB);
  return _mm256_or_si256(sign, _mm256_or_si256(e, frac));
}

// --- ifp_mul ---------------------------------------------------------------

inline __m256i ifp_mul8(__m256i ab, __m256i bb) {
  const Fields8 A = fields(ab), B = fields(bb);
  const __m256i fa = flushed(A), fb = flushed(B);
  const __m256i sign = _mm256_and_si256(
      _mm256_xor_si256(ab, bb), _mm256_set1_epi32(static_cast<int>(kSignMask)));

  const __m256i s = _mm256_add_epi32(fa, fb);
  const __m256i cin =
      _mm256_cmpgt_epi32(s, _mm256_set1_epi32(static_cast<int>(kHidden) - 1));
  const __m256i carried = _mm256_srli_epi32(
      _mm256_sub_epi32(s, _mm256_set1_epi32(static_cast<int>(kHidden))), 1);
  const __m256i frac = sel(s, carried, cin);
  // cin mask is -1 per firing lane, so subtracting it adds the carry.
  __m256i biased = _mm256_add_epi32(_mm256_add_epi32(A.e, B.e),
                                    _mm256_set1_epi32(-kBias));
  biased = _mm256_sub_epi32(biased, cin);
  const __m256i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void ifp_mul_f32(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i, ifp_mul8(load8(a + i), load8(b + i)));
  if (const std::size_t m = n - i)
    store8(out + i, ifp_mul8(load8(a + i, m), load8(b + i, m)), m);
}

// --- acfp_mul, Mitchell log path -------------------------------------------

inline __m256i acfp_log8(__m256i ab, __m256i bb, __m256i keep) {
  const Fields8 A = fields(ab), B = fields(bb);
  const __m256i fa = _mm256_and_si256(flushed(A), keep);
  const __m256i fb = _mm256_and_si256(flushed(B), keep);
  const __m256i sign = _mm256_and_si256(
      _mm256_xor_si256(ab, bb), _mm256_set1_epi32(static_cast<int>(kSignMask)));

  const __m256i s = _mm256_add_epi32(fa, fb);
  const __m256i cin =
      _mm256_cmpgt_epi32(s, _mm256_set1_epi32(static_cast<int>(kHidden) - 1));
  // No normalization shift: the 2^x ~ 1+x antilog reinterprets the overflow.
  const __m256i frac =
      sel(s, _mm256_sub_epi32(s, _mm256_set1_epi32(static_cast<int>(kHidden))),
          cin);
  __m256i biased = _mm256_add_epi32(_mm256_add_epi32(A.e, B.e),
                                    _mm256_set1_epi32(-kBias));
  biased = _mm256_sub_epi32(biased, cin);
  const __m256i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void acfp_log_f32(const float* a, const float* b, float* out, std::size_t n,
                  std::uint32_t keep) {
  const __m256i keepv = _mm256_set1_epi32(static_cast<int>(keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i, acfp_log8(load8(a + i), load8(b + i), keepv));
  if (const std::size_t m = n - i)
    store8(out + i, acfp_log8(load8(a + i, m), load8(b + i, m), keepv), m);
}

// --- trunc_mul -------------------------------------------------------------

inline __m256i trunc_mul8(__m256i ab, __m256i bb, __m256i keep) {
  const Fields8 A = fields(ab), B = fields(bb);
  const __m256i hidden = _mm256_set1_epi32(static_cast<int>(kHidden));
  const __m256i siga = _mm256_or_si256(flushed(A), hidden);
  const __m256i sigb = _mm256_or_si256(flushed(B), hidden);
  const __m256i sign = _mm256_and_si256(
      _mm256_xor_si256(ab, bb), _mm256_set1_epi32(static_cast<int>(kSignMask)));

  // 24x24 -> 48-bit exact products: even 32-bit lanes and odd 32-bit lanes
  // each through vpmuludq, then the shift/mask stage runs on 64-bit lanes
  // and the two halves recombine into 32-bit lanes.
  const __m256i pe = _mm256_mul_epu32(siga, sigb);
  const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(siga, 32),
                                      _mm256_srli_epi64(sigb, 32));
  const __m256i thr = _mm256_set1_epi64x((std::int64_t{1} << (2 * FB + 1)) - 1);
  const __m256i cine = _mm256_cmpgt_epi64(pe, thr);  // p >= 2^(2*FB+1)
  const __m256i cino = _mm256_cmpgt_epi64(po, thr);
  const __m256i shft = _mm256_set1_epi64x(FB);
  const __m256i shft1 = _mm256_set1_epi64x(FB + 1);
  const __m256i frace = _mm256_srlv_epi64(pe, sel(shft, shft1, cine));
  const __m256i fraco = _mm256_srlv_epi64(po, sel(shft, shft1, cino));
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i frac = _mm256_or_si256(_mm256_and_si256(frace, low32),
                                 _mm256_slli_epi64(fraco, 32));
  frac = _mm256_and_si256(
      _mm256_and_si256(frac, _mm256_set1_epi32(static_cast<int>(kFracMask))),
      keep);
  const __m256i cin = _mm256_or_si256(_mm256_and_si256(cine, low32),
                                      _mm256_slli_epi64(cino, 32));

  __m256i biased = _mm256_add_epi32(_mm256_add_epi32(A.e, B.e),
                                    _mm256_set1_epi32(-kBias));
  biased = _mm256_sub_epi32(biased, cin);
  const __m256i core = clamp_exp(compose(sign, biased, frac), biased, sign);
  return mul_specials(ab, bb, A, B, core);
}

void trunc_mul_f32(const float* a, const float* b, float* out, std::size_t n,
                   std::uint32_t keep) {
  const __m256i keepv = _mm256_set1_epi32(static_cast<int>(keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i, trunc_mul8(load8(a + i), load8(b + i), keepv));
  if (const std::size_t m = n - i)
    store8(out + i, trunc_mul8(load8(a + i, m), load8(b + i, m), keepv), m);
}

// --- ifp_add ---------------------------------------------------------------

inline __m256i ifp_add8(__m256i ab, __m256i bb, int th) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i signm = _mm256_set1_epi32(static_cast<int>(kSignMask));
  const Fields8 A = fields(ab), B = fields(bb);
  const __m256i fa = flushed(A), fb = flushed(B);
  const __m256i sa = _mm256_and_si256(ab, signm);
  const __m256i sb = _mm256_and_si256(bb, signm);

  // Compare-and-swap so x is the larger magnitude (exponent field, then
  // fraction field), exactly as the scalar lane orders it.
  const __m256i swap = _mm256_or_si256(
      _mm256_cmpgt_epi32(B.e, A.e),
      _mm256_and_si256(_mm256_cmpeq_epi32(B.e, A.e), _mm256_cmpgt_epi32(fb, fa)));
  const __m256i ex = sel(A.e, B.e, swap);
  const __m256i fx = sel(fa, fb, swap);
  const __m256i fy = sel(fb, fa, swap);
  const __m256i sx = sel(sa, sb, swap);
  const __m256i sy = sel(sb, sa, swap);
  const __m256i d = _mm256_sub_epi32(ex, sel(B.e, A.e, swap));

  // (TH+1)-bit alignment with the clamped shift pairs of the scalar lane.
  const int drop = FB - th;
  const int dpos = drop > 0 ? drop : 0;
  const int dneg = drop < 0 ? -drop : 0;
  const __m256i hidden = _mm256_set1_epi32(static_cast<int>(kHidden));
  const __m256i sigx = _mm256_or_si256(hidden, fx);
  const __m256i sigy = _mm256_or_si256(hidden, fy);
  const __m256i sh = _mm256_add_epi32(d, _mm256_set1_epi32(drop));
  const __m256i sh31 = _mm256_set1_epi32(31);
  const __m256i shpos = _mm256_min_epi32(_mm256_max_epi32(sh, zero), sh31);
  const __m256i shneg =
      _mm256_min_epi32(_mm256_max_epi32(_mm256_sub_epi32(zero, sh), zero), sh31);
  const __m256i saligned = _mm256_sll_epi32(
      _mm256_srl_epi32(sigx, _mm_cvtsi32_si128(dpos)), _mm_cvtsi32_si128(dneg));
  const __m256i baligned = _mm256_sllv_epi32(_mm256_srlv_epi32(sigy, shpos), shneg);
  const __m256i esub = bnot(_mm256_cmpeq_epi32(sx, sy));
  const __m256i s = sel(_mm256_add_epi32(saligned, baligned),
                        _mm256_sub_epi32(saligned, baligned), esub);
  const __m256i s_zero = _mm256_cmpeq_epi32(s, zero);

  // Leading-one position p = bit_width(s|1) - 1: fill below the MSB, isolate
  // it, and read its exponent via an exact power-of-two int->float convert.
  __m256i v = _mm256_or_si256(s, _mm256_set1_epi32(1));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 1));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 2));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 4));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 8));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 16));
  const __m256i msb = _mm256_sub_epi32(v, _mm256_srli_epi32(v, 1));
  const __m256i p = _mm256_sub_epi32(
      _mm256_srli_epi32(_mm256_castps_si256(_mm256_cvtepi32_ps(msb)), FB),
      _mm256_set1_epi32(kBias));

  const __m256i body = _mm256_xor_si256(s, msb);
  const __m256i fbv = _mm256_set1_epi32(FB);
  const __m256i lsh = _mm256_max_epi32(_mm256_sub_epi32(fbv, p), zero);
  const __m256i rsh = _mm256_max_epi32(_mm256_sub_epi32(p, fbv), zero);
  const __m256i frac = _mm256_srlv_epi32(_mm256_sllv_epi32(body, lsh), rsh);
  const __m256i biased =
      _mm256_add_epi32(ex, _mm256_sub_epi32(p, _mm256_set1_epi32(th)));
  __m256i core = compose(
      sx, biased,
      _mm256_and_si256(frac, _mm256_set1_epi32(static_cast<int>(kFracMask))));
  core = clamp_exp(core, biased, sx);

  // Select chain, lowest to highest precedence (scalar lane order).
  const __m256i qnan = _mm256_set1_epi32(static_cast<int>(kQnanBits));
  __m256i r = core;
  r = sel(r, zero, s_zero);
  r = sel(r, _mm256_or_si256(sx, _mm256_or_si256(_mm256_slli_epi32(ex, FB), fx)),
          _mm256_cmpgt_epi32(d, _mm256_set1_epi32(th - 1)));
  r = sel(r, sel(ab, sa, A.is_zero), B.is_zero);
  r = sel(r, sel(bb, sb, B.is_zero), A.is_zero);
  r = sel(r, _mm256_and_si256(sa, sb), _mm256_and_si256(A.is_zero, B.is_zero));
  r = sel(r, bb, B.is_inf);
  r = sel(r, ab, A.is_inf);
  r = sel(r, qnan,
          _mm256_and_si256(_mm256_and_si256(A.is_inf, B.is_inf),
                           bnot(_mm256_cmpeq_epi32(sa, sb))));
  r = sel(r, qnan, _mm256_or_si256(A.is_nan, B.is_nan));
  return r;
}

void ifp_add_f32(const float* a, const float* b, float* out, std::size_t n,
                 int th, std::uint32_t flip) {
  const __m256i flipv = _mm256_set1_epi32(static_cast<int>(flip));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i,
           ifp_add8(load8(a + i), _mm256_xor_si256(load8(b + i), flipv), th));
  if (const std::size_t m = n - i)
    store8(out + i,
           ifp_add8(load8(a + i, m), _mm256_xor_si256(load8(b + i, m), flipv),
                    th),
           m);
}

// --- fused multiply-accumulate ---------------------------------------------

/// Accumulation stage of the fused kernels (mirrors detail::acc_lane in
/// batch.h): TH-adder when th >= 1, else a precise vaddps whose result is
/// masked by acc_keep with NaN sums canonicalized to qNaN.
inline __m256i acc8(__m256i pb, __m256i cb, int th, __m256i acc_keep) {
  if (th >= 1) return ifp_add8(pb, cb, th);
  const __m256 s =
      _mm256_add_ps(_mm256_castsi256_ps(pb), _mm256_castsi256_ps(cb));
  const __m256i r = _mm256_and_si256(_mm256_castps_si256(s), acc_keep);
  const __m256i nan = _mm256_castps_si256(_mm256_cmp_ps(s, s, _CMP_UNORD_Q));
  return sel(r, _mm256_set1_epi32(static_cast<int>(kQnanBits)), nan);
}

void ifp_mac_f32(const float* a, const float* b, const float* c, float* out,
                 std::size_t n, int th, std::uint32_t acc_keep) {
  const __m256i keepv = _mm256_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i,
           acc8(ifp_mul8(load8(a + i), load8(b + i)), load8(c + i), th, keepv));
  if (const std::size_t m = n - i)
    store8(out + i,
           acc8(ifp_mul8(load8(a + i, m), load8(b + i, m)), load8(c + i, m),
                th, keepv),
           m);
}

void acfp_log_mac_f32(const float* a, const float* b, const float* c,
                      float* out, std::size_t n, std::uint32_t keep, int th,
                      std::uint32_t acc_keep) {
  const __m256i mkeepv = _mm256_set1_epi32(static_cast<int>(keep));
  const __m256i akeepv = _mm256_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i, acc8(acfp_log8(load8(a + i), load8(b + i), mkeepv),
                         load8(c + i), th, akeepv));
  if (const std::size_t m = n - i)
    store8(out + i,
           acc8(acfp_log8(load8(a + i, m), load8(b + i, m), mkeepv),
                load8(c + i, m), th, akeepv),
           m);
}

void trunc_mac_f32(const float* a, const float* b, const float* c, float* out,
                   std::size_t n, std::uint32_t keep, int th,
                   std::uint32_t acc_keep) {
  const __m256i mkeepv = _mm256_set1_epi32(static_cast<int>(keep));
  const __m256i akeepv = _mm256_set1_epi32(static_cast<int>(acc_keep));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    store8(out + i, acc8(trunc_mul8(load8(a + i), load8(b + i), mkeepv),
                         load8(c + i), th, akeepv));
  if (const std::size_t m = n - i)
    store8(out + i,
           acc8(trunc_mul8(load8(a + i, m), load8(b + i, m), mkeepv),
                load8(c + i, m), th, akeepv),
           m);
}

// --- ircp (the SFU span path) ----------------------------------------------

/// One half (4 lanes) of the reciprocal-SFU double datapath: the identical
/// mul/add/sub sequence of the scalar ircp evaluated per 64-bit lane (every
/// intermediate is exact except the one rounded multiply and subtract the
/// scalar also performs, and -ffp-contract=off forbids fusing them), then
/// scaling by an exactly-constructed power of two stands in for ldexp.
inline __m128 ircp_half(__m128i frac4, __m128i biased4) {
  const __m256d fracd = _mm256_cvtepi32_pd(frac4);
  const __m256d xr = _mm256_mul_pd(
      _mm256_add_pd(_mm256_set1_pd(1.0),
                    _mm256_mul_pd(fracd, _mm256_set1_pd(0x1p-23))),
      _mm256_set1_pd(0.5));
  const __m256d approx = _mm256_sub_pd(
      _mm256_set1_pd(2.823), _mm256_mul_pd(_mm256_set1_pd(1.882), xr));
  // ldexp(approx, -(e+1)) with e = biased - 127: multiply by 2^(126-biased),
  // exact because the scale and the product stay normal doubles for every
  // float exponent field (biased in [0, 255] -> scale exponent in [-129,126]).
  __m256i k = _mm256_cvtepi32_epi64(biased4);
  k = _mm256_sub_epi64(_mm256_set1_epi64x(126 + 1023), k);
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(k, 52));
  return _mm256_cvtpd_ps(_mm256_mul_pd(approx, scale));
}

inline __m256i ircp8(__m256i xb) {
  const Fields8 X = fields(xb);
  const __m256i sign =
      _mm256_and_si256(xb, _mm256_set1_epi32(static_cast<int>(kSignMask)));

  const __m128 lo = ircp_half(_mm256_castsi256_si128(X.frac),
                              _mm256_castsi256_si128(X.e));
  const __m128 hi = ircp_half(_mm256_extracti128_si256(X.frac, 1),
                              _mm256_extracti128_si256(X.e, 1));
  __m256i r = _mm256_castps_si256(_mm256_set_m128(hi, lo));
  // (float)(sign ? -y : y) == sign-bit OR for the positive converted value.
  r = _mm256_or_si256(r, sign);
  // flush_subnormal on the result (sign preserved).
  const __m256i re = _mm256_and_si256(_mm256_srli_epi32(r, FB),
                                      _mm256_set1_epi32(static_cast<int>(kExpMask)));
  r = sel(r, sign, _mm256_cmpeq_epi32(re, _mm256_setzero_si256()));

  // Specials in scalar precedence order: zero (incl. flushed subnormal
  // inputs) -> signed inf, inf -> signed zero, NaN -> canonical qNaN.
  r = sel(r, _mm256_or_si256(sign, _mm256_set1_epi32(static_cast<int>(kInfBits))),
          X.is_zero);
  r = sel(r, sign, X.is_inf);
  r = sel(r, _mm256_set1_epi32(static_cast<int>(kQnanBits)), X.is_nan);
  return r;
}

void ircp_f32(const float* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(out + i, ircp8(load8(x + i)));
  if (const std::size_t m = n - i)
    store8(out + i, ircp8(load8(x + i, m)), m);
}

}  // namespace

namespace detail {
const KernelTable kAvx2Table = {
    "avx2",         &ifp_add_f32,   &ifp_mul_f32,
    &acfp_log_f32,  &trunc_mul_f32, &ircp_f32,
    &ifp_mac_f32,   &acfp_log_mac_f32, &trunc_mac_f32,
};
}  // namespace detail

}  // namespace ihw::simd

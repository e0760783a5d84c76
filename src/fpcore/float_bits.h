#pragma once
// IEEE-754 binary32/binary64 field-level access. Every imprecise unit in
// src/ihw is built on these helpers, so they are header-only and constexpr
// where the language allows.
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace ihw::fp {

/// Format parameters for the two IEEE-754 binary formats we model.
template <typename T>
struct FloatTraits;

template <>
struct FloatTraits<float> {
  using Bits = std::uint32_t;
  using SBits = std::int32_t;
  static constexpr int frac_bits = 23;
  static constexpr int exp_bits = 8;
  static constexpr int bias = 127;
  static constexpr Bits frac_mask = (Bits{1} << frac_bits) - 1;
  static constexpr Bits exp_mask = (Bits{1} << exp_bits) - 1;
  static constexpr Bits sign_mask = Bits{1} << (frac_bits + exp_bits);
  static constexpr Bits hidden_bit = Bits{1} << frac_bits;
};

template <>
struct FloatTraits<double> {
  using Bits = std::uint64_t;
  using SBits = std::int64_t;
  static constexpr int frac_bits = 52;
  static constexpr int exp_bits = 11;
  static constexpr int bias = 1023;
  static constexpr Bits frac_mask = (Bits{1} << frac_bits) - 1;
  static constexpr Bits exp_mask = (Bits{1} << exp_bits) - 1;
  static constexpr Bits sign_mask = Bits{1} << (frac_bits + exp_bits);
  static constexpr Bits hidden_bit = Bits{1} << frac_bits;
};

template <typename T>
using BitsOf = typename FloatTraits<T>::Bits;

template <typename T>
constexpr BitsOf<T> to_bits(T v) {
  return std::bit_cast<BitsOf<T>>(v);
}

template <typename T>
constexpr T from_bits(BitsOf<T> b) {
  return std::bit_cast<T>(b);
}

/// Decomposed view of a floating point value: raw (biased) exponent and raw
/// fraction field, as the datapaths of Ch. 3 see them.
template <typename T>
struct Fields {
  using Tr = FloatTraits<T>;
  bool sign = false;
  int biased_exp = 0;                 // raw exponent field
  BitsOf<T> frac = 0;                 // fraction field, frac_bits wide

  int unbiased_exp() const { return biased_exp - Tr::bias; }
  bool is_zero() const { return biased_exp == 0 && frac == 0; }
  bool is_subnormal() const { return biased_exp == 0 && frac != 0; }
  bool is_inf() const {
    return biased_exp == static_cast<int>(Tr::exp_mask) && frac == 0;
  }
  bool is_nan() const {
    return biased_exp == static_cast<int>(Tr::exp_mask) && frac != 0;
  }
  bool is_finite_nonzero() const {
    return biased_exp != 0 && biased_exp != static_cast<int>(Tr::exp_mask);
  }
  /// Significand with the hidden bit set: 1.frac as a (frac_bits+1)-bit int.
  BitsOf<T> significand() const { return Tr::hidden_bit | frac; }
};

template <typename T>
constexpr Fields<T> decompose(T v) {
  using Tr = FloatTraits<T>;
  const auto b = to_bits(v);
  Fields<T> f;
  f.sign = (b & Tr::sign_mask) != 0;
  f.biased_exp = static_cast<int>((b >> Tr::frac_bits) & Tr::exp_mask);
  f.frac = b & Tr::frac_mask;
  return f;
}

template <typename T>
constexpr T compose(bool sign, int biased_exp, BitsOf<T> frac) {
  using Tr = FloatTraits<T>;
  BitsOf<T> b = (sign ? Tr::sign_mask : BitsOf<T>{0}) |
                (static_cast<BitsOf<T>>(biased_exp & static_cast<int>(Tr::exp_mask))
                 << Tr::frac_bits) |
                (frac & Tr::frac_mask);
  return from_bits<T>(b);
}

/// Composes from an unbiased exponent, saturating to +-inf on overflow and
/// flushing to zero on underflow -- the behaviour every imprecise unit in the
/// paper adopts (subnormals are set to zero by default; infinities kept).
template <typename T>
constexpr T compose_flushing(bool sign, int unbiased_exp, BitsOf<T> frac) {
  using Tr = FloatTraits<T>;
  const int biased = unbiased_exp + Tr::bias;
  if (biased >= static_cast<int>(Tr::exp_mask))
    return compose<T>(sign, static_cast<int>(Tr::exp_mask), 0);  // +-inf
  if (biased <= 0) return compose<T>(sign, 0, 0);                // flush
  return compose<T>(sign, biased, frac);
}

template <typename T>
constexpr bool is_nan(T v) { return decompose(v).is_nan(); }
template <typename T>
constexpr bool is_inf(T v) { return decompose(v).is_inf(); }
template <typename T>
constexpr bool is_subnormal(T v) { return decompose(v).is_subnormal(); }

/// Subnormal-to-zero flush (sign preserved), applied to operands by the
/// imprecise units.
template <typename T>
constexpr T flush_subnormal(T v) {
  const auto f = decompose(v);
  if (f.is_subnormal()) return compose<T>(f.sign, 0, 0);
  return v;
}

}  // namespace ihw::fp

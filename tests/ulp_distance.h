#pragma once
// Test helper: distance in units-in-the-last-place between two floats, for
// tests that bound a unit's result against an exact reference.
#include <cmath>
#include <cstdint>

#include "fpcore/float_bits.h"

namespace ihw::fp {

/// Distance in ulps between two finite values, via the ordered-integer
/// mapping (+0 and -0 are adjacent); NaN inputs return max.
template <typename T>
std::uint64_t ulp_distance(T a, T b) {
  using Tr = FloatTraits<T>;
  if (std::isnan(a) || std::isnan(b)) return ~0ull;
  // Map the sign-magnitude float ordering onto two's-complement integers.
  auto ordered = [](typename Tr::Bits x) {
    return (x & Tr::sign_mask)
               ? static_cast<typename Tr::Bits>(Tr::sign_mask - (x & ~Tr::sign_mask))
               : static_cast<typename Tr::Bits>(Tr::sign_mask + x);
  };
  const auto oa = ordered(to_bits(a));
  const auto ob = ordered(to_bits(b));
  return oa > ob ? static_cast<std::uint64_t>(oa - ob)
                 : static_cast<std::uint64_t>(ob - oa);
}

}  // namespace ihw::fp

// Unit tests for the IEEE-754 field-access layer every imprecise unit is
// built on.
#include "fpcore/float_bits.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "ulp_distance.h"

namespace ihw::fp {
namespace {

template <typename T>
class FloatBitsTest : public ::testing::Test {};
using FloatTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(FloatBitsTest, FloatTypes);

TYPED_TEST(FloatBitsTest, DecomposeComposeRoundTripsRandomValues) {
  using T = TypeParam;
  common::Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) {
    const T v = static_cast<T>(
        std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform(-60, 60))) *
        (rng.uniform() < 0.5 ? -1.0 : 1.0));
    const auto f = decompose(v);
    EXPECT_EQ(compose<T>(f.sign, f.biased_exp, f.frac), v);
  }
}

TYPED_TEST(FloatBitsTest, DecomposeClassifiesSpecials) {
  using T = TypeParam;
  EXPECT_TRUE(decompose(std::numeric_limits<T>::quiet_NaN()).is_nan());
  EXPECT_TRUE(decompose(std::numeric_limits<T>::infinity()).is_inf());
  EXPECT_TRUE(decompose(-std::numeric_limits<T>::infinity()).is_inf());
  EXPECT_TRUE(decompose(T(0)).is_zero());
  EXPECT_TRUE(decompose(-T(0)).is_zero());
  EXPECT_TRUE(decompose(std::numeric_limits<T>::denorm_min()).is_subnormal());
  EXPECT_TRUE(decompose(T(1)).is_finite_nonzero());
  EXPECT_FALSE(decompose(T(1)).is_subnormal());
}

TYPED_TEST(FloatBitsTest, SignificandHasHiddenBit) {
  using T = TypeParam;
  using Tr = FloatTraits<T>;
  const auto f = decompose(T(1));
  EXPECT_EQ(f.frac, typename Tr::Bits{0});
  EXPECT_EQ(f.significand(), Tr::hidden_bit);
  const auto g = decompose(T(1.5));
  EXPECT_EQ(g.significand(), Tr::hidden_bit | (Tr::hidden_bit >> 1));
}

TYPED_TEST(FloatBitsTest, UnbiasedExponentMatchesFrexpStyle) {
  using T = TypeParam;
  EXPECT_EQ(decompose(T(1)).unbiased_exp(), 0);
  EXPECT_EQ(decompose(T(2)).unbiased_exp(), 1);
  EXPECT_EQ(decompose(T(0.5)).unbiased_exp(), -1);
  EXPECT_EQ(decompose(T(1024)).unbiased_exp(), 10);
}

TYPED_TEST(FloatBitsTest, FlushSubnormalPreservesSignAndNormals) {
  using T = TypeParam;
  EXPECT_EQ(flush_subnormal(std::numeric_limits<T>::denorm_min()), T(0));
  EXPECT_TRUE(
      std::signbit(flush_subnormal(-std::numeric_limits<T>::denorm_min())));
  EXPECT_EQ(flush_subnormal(T(1.25)), T(1.25));
  EXPECT_EQ(flush_subnormal(std::numeric_limits<T>::min()),
            std::numeric_limits<T>::min());
}

TYPED_TEST(FloatBitsTest, ComposeFlushingSaturatesAndFlushes) {
  using T = TypeParam;
  using Tr = FloatTraits<T>;
  // Overflow -> infinity.
  const T inf = compose_flushing<T>(false, Tr::bias + 10, 0);
  (void)inf;
  const T big = compose_flushing<T>(false, static_cast<int>(Tr::exp_mask), 0);
  EXPECT_TRUE(std::isinf(big));
  // Underflow -> signed zero.
  const T tiny = compose_flushing<T>(true, -Tr::bias - 5, 0);
  EXPECT_EQ(tiny, T(0));
  EXPECT_TRUE(std::signbit(tiny));
  // Normal range round-trips.
  EXPECT_EQ(compose_flushing<T>(false, 3, 0), T(8));
}

TEST(UlpDistance, AdjacentAndIdenticalValues) {
  EXPECT_EQ(ulp_distance(1.0f, 1.0f), 0u);
  EXPECT_EQ(ulp_distance(1.0f, std::nextafterf(1.0f, 2.0f)), 1u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulp_distance(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1u);
}

TEST(UlpDistance, CrossesZeroAndHandlesNan) {
  // +0 and -0 are adjacent in the ordered-integer mapping.
  EXPECT_LE(ulp_distance(0.0f, -0.0f), 1u);
  EXPECT_EQ(ulp_distance(std::nanf(""), 1.0f), ~0ull);
}

}  // namespace
}  // namespace ihw::fp

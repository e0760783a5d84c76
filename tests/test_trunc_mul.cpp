// Tests for the intuitive bit-truncation baseline multiplier.
#include "ihw/trunc_mul.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "ulp_distance.h"

namespace ihw {
namespace {

TEST(TruncMul, ZeroTruncationIsWithinOneUlpOfExact) {
  // trunc=0 computes the exact significand product, truncated (not rounded)
  // into the fraction field.
  common::Xoshiro256 rng(51);
  for (int i = 0; i < 200000; ++i) {
    const float a = static_cast<float>(rng.uniform(1.0, 2.0));
    const float b = static_cast<float>(rng.uniform(1.0, 2.0));
    const float r = trunc_mul(a, b, 0);
    ASSERT_LE(fp::ulp_distance(r, a * b), 1u);
  }
}

TEST(TruncMul, ErrorBoundIsTwoToTheMinusKeptBits) {
  common::Xoshiro256 rng(52);
  for (int tr : {4, 8, 12, 16, 19, 21}) {
    const double bound = std::ldexp(1.0, tr - 23) + 1e-9;
    double max_rel = 0.0;
    for (int i = 0; i < 150000; ++i) {
      const float a = static_cast<float>(rng.uniform(1.0, 2.0));
      const float b = static_cast<float>(rng.uniform(1.0, 2.0));
      const double exact = static_cast<double>(a) * static_cast<double>(b);
      const double rel = std::fabs(trunc_mul(a, b, tr) - exact) / exact;
      ASSERT_LE(rel, bound);
      max_rel = std::max(max_rel, rel);
    }
    // The bound is achievable (mantissa just below the truncation granule).
    EXPECT_GT(max_rel, bound * 0.5);
  }
}

TEST(TruncMul, PaperPointTwentyOneBitsGivesAboutTwentyOnePercent) {
  common::Xoshiro256 rng(53);
  double max_rel = 0.0;
  for (int i = 0; i < 500000; ++i) {
    const float a = static_cast<float>(rng.uniform(1.0, 2.0));
    const float b = static_cast<float>(rng.uniform(1.0, 2.0));
    const double exact = static_cast<double>(a) * static_cast<double>(b);
    max_rel = std::max(max_rel,
                       std::fabs(trunc_mul(a, b, 21) - exact) / exact);
  }
  EXPECT_NEAR(max_rel, 0.20, 0.03);  // paper: "about 21%"
}

TEST(TruncMul, AlwaysUnderestimatesMagnitude) {
  common::Xoshiro256 rng(54);
  for (int i = 0; i < 100000; ++i) {
    const float a = static_cast<float>(rng.uniform(1.0, 2.0));
    const float b = static_cast<float>(rng.uniform(1.0, 2.0));
    EXPECT_LE(trunc_mul(a, b, 10), a * b);
  }
}

TEST(TruncMul, MonotonicInTruncation) {
  common::Xoshiro256 rng(55);
  for (int i = 0; i < 50000; ++i) {
    const float a = static_cast<float>(rng.uniform(1.0, 2.0));
    const float b = static_cast<float>(rng.uniform(1.0, 2.0));
    float prev = trunc_mul(a, b, 0);
    for (int tr : {4, 8, 16, 23}) {
      const float cur = trunc_mul(a, b, tr);
      ASSERT_LE(cur, prev);  // more truncation only removes low bits
      prev = cur;
    }
  }
}

TEST(TruncMul, SpecialsAndSigns) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(trunc_mul(std::nanf(""), 1.0f, 4)));
  EXPECT_TRUE(std::isnan(trunc_mul(inf, 0.0f, 4)));
  EXPECT_EQ(trunc_mul(inf, 2.0f, 4), inf);
  EXPECT_EQ(trunc_mul(-2.0f, 3.0f, 4) > 0.0f, false);
  EXPECT_EQ(trunc_mul(0.0f, 7.0f, 4), 0.0f);
}

TEST(TruncMul, DoublePrecisionSweep) {
  common::Xoshiro256 rng(56);
  for (int tr : {44, 48, 49}) {
    const double bound = std::ldexp(1.0, tr - 52) + 1e-12;
    for (int i = 0; i < 100000; ++i) {
      const double a = rng.uniform(1.0, 2.0);
      const double b = rng.uniform(1.0, 2.0);
      ASSERT_LE(std::fabs(trunc_mul(a, b, tr) - a * b) / (a * b), bound);
    }
  }
}

}  // namespace
}  // namespace ihw

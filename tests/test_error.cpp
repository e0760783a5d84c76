// Tests for the error metrics and PMF characterization framework (Ch. 4.2).
#include "error/characterize.h"
#include "error/metrics.h"
#include "error/pmf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "ihw/ihw.h"
#include "qmc/sobol.h"
#include "runtime/parallel.h"

namespace ihw::error {
namespace {

TEST(ErrorStats, AccumulatesAllMetrics) {
  ErrorStats s;
  s.observe(10.0, 10.0);   // no error
  s.observe(10.0, 11.0);   // rel 0.1, abs 1
  s.observe(-4.0, -3.0);   // rel 0.25, abs 1
  s.observe(2.0, 2.0);     // no error
  EXPECT_EQ(s.samples(), 4u);
  EXPECT_EQ(s.errors(), 2u);
  EXPECT_DOUBLE_EQ(s.error_rate(), 0.5);
  EXPECT_DOUBLE_EQ(s.max_rel(), 0.25);
  EXPECT_DOUBLE_EQ(s.mean_rel(), (0.1 + 0.25) / 4.0);
  EXPECT_DOUBLE_EQ(s.med(), 0.5);
  EXPECT_DOUBLE_EQ(s.wed(), 1.0);
}

TEST(ErrorStats, IgnoresNanPairsAndZeroExact) {
  ErrorStats s;
  s.observe(std::nan(""), 1.0);
  s.observe(0.0, 5.0);  // abs error counted, rel skipped
  EXPECT_EQ(s.samples(), 2u);
  EXPECT_DOUBLE_EQ(s.max_rel(), 0.0);
  EXPECT_DOUBLE_EQ(s.wed(), 5.0);
}

// The characterization driver's split of observe(): sample() + count() per
// chunk, merge_counts() of the chunks, add_sums() in sample order. It must
// leave the same bits as observe(), NaN, inf and zero-exact pairs included.
TEST(ErrorStats, SplitFoldMatchesObserve) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> pairs[] = {
      {nan, 1.0}, {10.0, 11.0},  {0.0, 5.0},   {1.0, nan}, {inf, inf},
      {-4.0, -3.0}, {2.0, 2.0},  {1.0, inf},  {inf, 1.0}, {3.0, 2.9},
      {0.0, 0.0},  {-inf, 7.0}, {1e-300, 1.0}, {5.0, 5.5},
  };
  ErrorStats want;
  for (const auto& [e, a] : pairs) want.observe(e, a);
  ErrorStats got;
  constexpr std::size_t kChunk = 4;
  for (std::size_t c = 0; c < std::size(pairs); c += kChunk) {
    ErrorStats part;
    std::vector<double> abs_err, rel;
    for (std::size_t i = c; i < std::min(std::size(pairs), c + kChunk); ++i) {
      const auto t = ErrorStats::sample(pairs[i].first, pairs[i].second);
      part.count(t);
      abs_err.push_back(t.abs_err);
      rel.push_back(t.rel);
    }
    got.merge_counts(part);
    got.add_sums(abs_err.data(), rel.data(), abs_err.size());
  }
  const auto g = got.state(), w = want.state();
  EXPECT_EQ(g.samples, w.samples);
  EXPECT_EQ(g.errors, w.errors);
  EXPECT_EQ(g.rel_samples, w.rel_samples);
  for (const auto& [x, y] : {std::pair{g.max_rel, w.max_rel},
                             {g.sum_rel, w.sum_rel},
                             {g.sum_abs, w.sum_abs},
                             {g.max_abs, w.max_abs}})
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x), std::bit_cast<std::uint64_t>(y));
}

TEST(ErrorPmf, BucketsOnCeilLog2OfPercent) {
  ErrorPmf pmf;
  // err% = 3 -> ceil(log2 3) = 2.
  pmf.observe_rel_error(0.03);
  EXPECT_DOUBLE_EQ(pmf.probability(2), 1.0);
  // err% = 4 -> exactly bucket 2 (ceil(2) = 2).
  pmf.observe_rel_error(0.04);
  EXPECT_DOUBLE_EQ(pmf.probability(2), 1.0);
  // err% = 4.01 -> bucket 3.
  pmf.observe_rel_error(0.0401);
  EXPECT_NEAR(pmf.probability(3), 1.0 / 3.0, 1e-12);
}

TEST(ErrorPmf, ZeroErrorsCountTowardRateDenominator) {
  ErrorPmf pmf;
  pmf.observe_rel_error(0.0);
  pmf.observe_rel_error(0.0);
  pmf.observe_rel_error(0.01);
  EXPECT_EQ(pmf.samples(), 3u);
  EXPECT_NEAR(pmf.error_rate(), 1.0 / 3.0, 1e-12);
}

TEST(ErrorPmf, MassEqualsErrorRate) {
  ErrorPmf pmf;
  for (int i = 1; i <= 1000; ++i) pmf.observe_rel_error(i * 1e-5);
  for (int i = 0; i < 500; ++i) pmf.observe_rel_error(0.0);
  double mass = 0.0;
  for (int b = pmf.min_bucket(); b <= pmf.max_bucket(); ++b)
    mass += pmf.probability(b);
  EXPECT_NEAR(mass, pmf.error_rate(), 1e-12);
}

TEST(ErrorPmf, ClampsOutOfRangeBuckets) {
  ErrorPmf pmf(-4, 4);
  pmf.observe_rel_error(1e-12);  // far below min bucket
  pmf.observe_rel_error(1e6);    // far above max bucket
  EXPECT_DOUBLE_EQ(pmf.probability(-4), 0.5);
  EXPECT_DOUBLE_EQ(pmf.probability(4), 0.5);
  EXPECT_EQ(pmf.max_nonzero_bucket(), 4);
}

// --- ErrorPmf::bucket: the exponent-field fast path must reproduce
// ceil(log2(pct)) bit for bit, including where std::log2 rounds down to k
// a few ulps above 2^k.

int log2_bucket(double pct, int lo, int hi) {
  const double b = std::ceil(std::log2(pct));
  if (!(b > lo)) return lo;
  if (b > hi) return hi;
  return static_cast<int>(b);
}

TEST(ErrorPmf, BucketMatchesCeilLog2AroundPowersOfTwo) {
  const ErrorPmf pmf(-64, 64);
  const auto check = [&](double pct) {
    ASSERT_EQ(pmf.bucket(pct), log2_bucket(pct, -64, 64)) << std::hexfloat << pct;
  };
  for (int k = -30; k <= 10; ++k) {
    const double p = std::ldexp(1.0, k);
    EXPECT_EQ(pmf.bucket(p), k);
    check(std::nextafter(p, 0.0));
    check(std::nextafter(p, 1e300));
    for (std::uint64_t j = 1; j <= 64; ++j)
      check(std::ldexp(1.0 + std::ldexp(static_cast<double>(j), -52), k));
    for (const std::uint64_t j :
         {(1ull << 20), (1ull << 31), (1ull << 32) - 1, (1ull << 32),
          (1ull << 32) + 1, (1ull << 40), (1ull << 52) - 1})
      check(std::ldexp(1.0 + std::ldexp(static_cast<double>(j), -52), k));
  }
  // Every normal exponent, at the edge of the fast path and far above it.
  const ErrorPmf wide(-1100, 1100);
  for (std::uint64_t field = 1; field < 0x7ff; ++field)
    for (const std::uint64_t frac :
         {0ull, 1ull, (1ull << 32) - 1, (1ull << 32), (1ull << 32) + 1,
          (1ull << 51), (1ull << 52) - 1}) {
      const double pct = std::bit_cast<double>((field << 52) | frac);
      ASSERT_EQ(wide.bucket(pct), log2_bucket(pct, -1100, 1100))
          << std::hexfloat << pct;
    }
}

TEST(ErrorPmf, BucketMatchesCeilLog2AtRandomPercentages) {
  const ErrorPmf pmf(-64, 64);
  const ErrorPmf wide(-1100, 1100);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&] {  // splitmix64
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 200000; ++i) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    const int e = static_cast<int>(next() % 61) - 40;
    const double pct = std::ldexp(1.0 + u, e);
    ASSERT_EQ(pmf.bucket(pct), log2_bucket(pct, -64, 64)) << std::hexfloat << pct;
    // Any positive finite bit pattern, subnormals included.
    const double raw = std::bit_cast<double>(next() >> 1);
    if (std::isfinite(raw)) {
      ASSERT_EQ(wide.bucket(raw), log2_bucket(raw, -1100, 1100))
          << std::hexfloat << raw;
    }
  }
}

TEST(ErrorPmf, BucketClampsAndSpecialValues) {
  const ErrorPmf pmf;  // buckets [-24, 8]
  EXPECT_EQ(pmf.bucket(std::ldexp(1.0, -24)), -24);
  EXPECT_EQ(pmf.bucket(std::ldexp(1.5, -24)), -23);
  EXPECT_EQ(pmf.bucket(std::ldexp(1.5, -30)), -24);
  EXPECT_EQ(pmf.bucket(256.0), 8);
  EXPECT_EQ(pmf.bucket(257.0), 8);
  EXPECT_EQ(pmf.bucket(1e300), 8);
  EXPECT_EQ(pmf.bucket(std::numeric_limits<double>::denorm_min()), -24);
  EXPECT_EQ(pmf.bucket(0.0), -24);
  EXPECT_EQ(pmf.bucket(std::numeric_limits<double>::infinity()), 8);
  EXPECT_EQ(pmf.bucket(std::numeric_limits<double>::quiet_NaN()), -24);
  // Subnormal percentages, unclamped.
  const ErrorPmf wide(-1100, 1100);
  EXPECT_EQ(wide.bucket(std::numeric_limits<double>::denorm_min()), -1074);
  EXPECT_EQ(wide.bucket(std::ldexp(1.5, -1030)), -1029);
  EXPECT_EQ(wide.bucket(std::ldexp(1.0, -1030)), -1030);
}

TEST(ErrorPmf, ToStringListsNonEmptyBuckets) {
  ErrorPmf pmf;
  pmf.observe_rel_error(0.03);
  const auto s = pmf.to_string("unit");
  EXPECT_NE(s.find("unit"), std::string::npos);
  EXPECT_NE(s.find("2^2%"), std::string::npos);
}

TEST(Characterize, UnitBoundsRespectTheory) {
  // Characterization results must stay under the Table 1 analytic bounds.
  struct Case {
    UnitKind kind;
    int param;
    double bound;
  };
  const Case cases[] = {
      {UnitKind::Rcp, 0, 0.0591}, {UnitKind::Rsqrt, 0, 0.1112},
      {UnitKind::Sqrt, 0, 0.1112}, {UnitKind::FpMul, 0, 0.2501},
      {UnitKind::AcfpLog, 0, 0.11112}, {UnitKind::AcfpFull, 0, 0.0206},
      {UnitKind::FpAdd, 8, 0.0079},
  };
  for (const auto& c : cases) {
    const auto res = characterize32(c.kind, c.param, 200000);
    EXPECT_LE(res.stats.max_rel(), c.bound) << res.label;
    EXPECT_GT(res.stats.max_rel(), 0.0) << res.label;
    EXPECT_EQ(res.pmf.samples(), 200000u);
  }
}

TEST(Characterize, SixtyFourBitVariantsWork) {
  const auto res = characterize64_many({{UnitKind::AcfpFull, 0}}, 100000)[0];
  EXPECT_LE(res.stats.max_rel(), 0.0206);
  const auto res2 = characterize64_many({{UnitKind::AcfpLog, 48}}, 100000)[0];
  EXPECT_LE(res2.stats.max_rel(), 0.20);
  EXPECT_GT(res2.stats.max_rel(), 0.12);
}

TEST(Characterize, TruncationShiftsPmfRight) {
  const auto a = characterize32(UnitKind::AcfpLog, 0, 150000);
  const auto b = characterize32(UnitKind::AcfpLog, 19, 150000);
  EXPECT_GE(b.pmf.max_nonzero_bucket(), a.pmf.max_nonzero_bucket());
  EXPECT_GT(b.stats.mean_rel(), a.stats.mean_rel());
}

TEST(Characterize, LabelsIncludeParameters) {
  EXPECT_EQ(characterize32(UnitKind::AcfpLog, 19, 10).label, "log_path(19)");
  EXPECT_EQ(characterize32(UnitKind::Rcp, 0, 10).label, "ircp");
}

// ------------------------------------------------- scalar characterization oracle
//
// The per-sample loop the span-level driver must reproduce bit for bit: Sobol
// point -> operand scatter -> scalar unit call -> ErrorStats::observe /
// ErrorPmf::observe_rel_error, in ascending sample order. It shares only the
// Sobol generator, the scalar units and the accumulators' per-sample rule
// (ErrorStats::sample, ErrorPmf::bucket, pinned by the tests above) with the
// driver, which splits that rule between its producer and its consumer.

// Significand uniform in [1,2) scaled by 2^e, e uniform in [-spread, spread].
template <typename T>
T scatter(double u, double v, int spread) {
  const int e = static_cast<int>(std::floor(v * (2 * spread + 1))) - spread;
  return static_cast<T>(std::ldexp(1.0 + u, e));
}

// One sample: maps the Sobol point p to operands and returns (exact, approx).
template <typename T>
std::pair<double, double> sample_unit(UnitKind kind, int param,
                                      const double* p) {
  // The adder is characterized over a +-12 exponent spread (every d-vs-TH
  // alignment case); everything else over [1,2) significands.
  const int spread =
      (kind == UnitKind::FpAdd || kind == UnitKind::FpSub) ? 12 : 0;
  const int th = param ? param : kDefaultAddTh;
  const T a = scatter<T>(p[0], p[1], spread);
  const T b = scatter<T>(p[2], p[3], spread);
  const double da = a, db = b;
  switch (kind) {
    case UnitKind::FpAdd: return {da + db, ifp_add(a, b, th)};
    case UnitKind::FpSub: return {da - db, ifp_sub(a, b, th)};
    case UnitKind::FpMul: return {da * db, ifp_mul(a, b)};
    case UnitKind::FpDiv: return {da / db, ifp_div(a, b)};
    case UnitKind::Rcp: return {1.0 / da, ircp(a)};
    case UnitKind::Rsqrt: return {1.0 / std::sqrt(da), irsqrt(a)};
    case UnitKind::Sqrt: return {std::sqrt(da), isqrt(a)};
    case UnitKind::Log2: return {std::log2(da), ilog2(a)};
    case UnitKind::Exp2: {
      const T x = static_cast<T>(p[0] * 8.0 - 4.0);  // fraction segment [-4,4)
      return {std::exp2(static_cast<double>(x)), iexp2(x)};
    }
    case UnitKind::Fma: {
      const T c = scatter<T>(p[4], p[5], spread);
      return {da * db + static_cast<double>(c), ifp_fma(a, b, c)};
    }
    case UnitKind::AcfpLog: return {da * db, acfp_mul(a, b, AcfpPath::Log, param)};
    case UnitKind::AcfpFull:
      return {da * db, acfp_mul(a, b, AcfpPath::Full, param)};
    case UnitKind::BitTrunc: return {da * db, trunc_mul(a, b, param)};
  }
  return {0.0, 0.0};
}

template <typename T>
CharResult characterize_oracle(UnitKind kind, int param,
                               std::uint64_t samples) {
  CharResult res{to_string(kind), {}, ErrorPmf{}};
  qmc::Sobol sobol(kind == UnitKind::Fma ? 6 : 4);
  double p[6];
  for (std::uint64_t i = 0; i < samples; ++i) {
    sobol.next(p);
    const auto [exact, approx] = sample_unit<T>(kind, param, p);
    res.stats.observe(exact, approx);
    if (exact != 0.0 && std::isfinite(exact))
      res.pmf.observe_rel_error(std::fabs(approx - exact) / std::fabs(exact));
  }
  return res;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const CharResult& got, const CharResult& want) {
  const auto sg = got.stats.state(), sw = want.stats.state();
  EXPECT_EQ(sg.samples, sw.samples);
  EXPECT_EQ(sg.errors, sw.errors);
  EXPECT_EQ(sg.rel_samples, sw.rel_samples);
  EXPECT_EQ(bits(sg.max_rel), bits(sw.max_rel));
  EXPECT_EQ(bits(sg.sum_rel), bits(sw.sum_rel));
  EXPECT_EQ(bits(sg.sum_abs), bits(sw.sum_abs));
  EXPECT_EQ(bits(sg.max_abs), bits(sw.max_abs));
  const auto pg = got.pmf.state(), pw = want.pmf.state();
  EXPECT_EQ(pg.samples, pw.samples);
  EXPECT_EQ(pg.zero_error, pw.zero_error);
  EXPECT_EQ(pg.counts, pw.counts);
}

// Every UnitKind; non-zero params where the unit takes one.
const CharRequest kAllUnits[] = {
    {UnitKind::FpAdd, 5},    {UnitKind::FpSub, 0},    {UnitKind::FpMul, 0},
    {UnitKind::FpDiv, 0},    {UnitKind::Rcp, 0},      {UnitKind::Rsqrt, 0},
    {UnitKind::Sqrt, 0},     {UnitKind::Log2, 0},     {UnitKind::Exp2, 0},
    {UnitKind::Fma, 0},      {UnitKind::AcfpLog, 7},  {UnitKind::AcfpFull, 3},
    {UnitKind::BitTrunc, 11},
};

// Nine driver chunks of 2^14, the last one partial, so 4 threads reorder
// real work.
constexpr std::uint64_t kOracleSamples = 140'000;

TEST(CharacterizeOracle, Float32MatchesScalarLoopForEveryUnit) {
  for (const auto& r : kAllUnits) {
    const CharResult want = characterize_oracle<float>(r.kind, r.param,
                                                       kOracleSamples);
    for (const int threads : {1, 4}) {
      runtime::ScopedThreads scope(threads);
      SCOPED_TRACE(to_string(r.kind) + " threads=" + std::to_string(threads));
      expect_bit_identical(characterize32(r.kind, r.param, kOracleSamples),
                           want);
    }
  }
}

TEST(CharacterizeOracle, Float64MatchesScalarLoopForEveryUnit) {
  for (const auto& r : kAllUnits) {
    const CharResult want = characterize_oracle<double>(r.kind, r.param,
                                                        kOracleSamples);
    for (const int threads : {1, 4}) {
      runtime::ScopedThreads scope(threads);
      SCOPED_TRACE(to_string(r.kind) + " threads=" + std::to_string(threads));
      expect_bit_identical(
          characterize64_many({r}, kOracleSamples)[0], want);
    }
  }
}

}  // namespace
}  // namespace ihw::error

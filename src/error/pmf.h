#pragma once
// Probability mass function of error magnitudes on the log2 scale of
// Figs. 8-9: bucket index x = ceil(log2(|err%|)), i.e. a bar at x=-2 is the
// probability that the relative error percentage lies in (2^-3, 2^-2].
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace ihw::error {

class ErrorPmf {
 public:
  /// Buckets span [min_bucket, max_bucket]; errors below/above clamp to the
  /// end buckets. The defaults cover 2^-24 % .. 2^8 % which brackets every
  /// unit in the paper.
  explicit ErrorPmf(int min_bucket = -24, int max_bucket = 8);

  /// Full accumulator state (see ErrorStats::State): lets the sweep
  /// evaluation cache persist and restore a PMF bit-exactly.
  struct State {
    int min_bucket = -24;
    int max_bucket = 8;
    std::uint64_t samples = 0;
    std::uint64_t zero_error = 0;
    std::vector<std::uint64_t> counts;
  };

  State state() const { return {min_bucket_, max_bucket_, samples_, zero_error_, counts_}; }
  static ErrorPmf from_state(const State& s);

  /// Record one sample's relative error (as a fraction, not percent). NaN
  /// counts as a sample with no bucket, 0 as a zero-error sample.
  void observe_rel_error(double rel) {
    ++samples_;
    if (std::isnan(rel)) return;
    if (rel == 0.0) {
      ++zero_error_;
      return;
    }
    ++counts_[static_cast<std::size_t>(bucket(rel * 100.0) - min_bucket_)];
  }

  /// Bucket of an error percentage: ceil(log2(pct)), clamped to
  /// [min_bucket, max_bucket]; 0 and NaN land in min_bucket, inf in
  /// max_bucket. For a normal pct = 2^E * (1 + f/2^52) with f >= 2^32,
  /// log2(pct) exceeds E by at least 2^-20/ln2, far more than an ulp of E,
  /// so the bucket is E + 1, read off the exponent field. Closer above a
  /// power of two std::log2 can round down to E, so those values, f == 0
  /// (exactly 2^E), subnormals, 0, inf, NaN and negatives take
  /// std::ceil(std::log2(pct)).
  int bucket(double pct) const {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(pct);
    const int field = static_cast<int>(bits >> 52);  // sign bit included
    if (field > 0 && field < 0x7ff && (bits & kFractionMask) >= kFastFraction)
      return std::clamp(field - 1022, min_bucket_, max_bucket_);
    const double b = std::ceil(std::log2(pct));
    if (!(b > min_bucket_)) return min_bucket_;
    if (b > max_bucket_) return max_bucket_;
    return static_cast<int>(b);
  }

  /// Adds another PMF's counts; both must have the same bucket range.
  void merge(const ErrorPmf& o) {
    samples_ += o.samples_;
    zero_error_ += o.zero_error_;
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  }

  std::uint64_t samples() const { return samples_; }
  /// Total probability mass of non-zero errors (the sum of all bars).
  double error_rate() const;
  /// Probability of bucket x (err% in (2^(x-1), 2^x]).
  double probability(int bucket) const;
  int min_bucket() const { return min_bucket_; }
  int max_bucket() const { return max_bucket_; }
  /// Highest non-empty bucket, or min_bucket-1 when error-free.
  int max_nonzero_bucket() const;

  /// Renders "bucket probability" rows, skipping empty buckets.
  std::string to_string(const std::string& label) const;

 private:
  static constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t kFastFraction = std::uint64_t{1} << 32;

  int min_bucket_, max_bucket_;
  std::uint64_t samples_ = 0;
  std::uint64_t zero_error_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace ihw::error

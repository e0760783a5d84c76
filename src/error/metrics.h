#pragma once
// Streaming error metrics for imprecise-unit characterization (Ch. 4):
// maximum/mean relative error, error rate, and the error-distance metrics
// (MED/WED) of Han & Orshansky's survey cited by the paper.
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace ihw::error {

/// Accumulates error statistics over a stream of (exact, approx) pairs.
class ErrorStats {
 public:
  /// Full accumulator state, exposed so the sweep evaluation cache
  /// (src/sweep/cache.h) can persist a characterization bit-exactly.
  struct State {
    std::uint64_t samples = 0;
    std::uint64_t errors = 0;
    std::uint64_t rel_samples = 0;
    double max_rel = 0.0;
    double sum_rel = 0.0;
    double sum_abs = 0.0;
    double max_abs = 0.0;
  };

  /// One (exact, approx) pair reduced to what the accumulators take from it.
  /// observe() is count() plus add_sums() of sample(), so this is the one
  /// definition of the per-sample rule. A pair with a NaN side is counted as
  /// a sample and contributes +0.0 to both sums; `rel` is +0.0 (and
  /// `has_rel` false) unless exact is finite and non-zero.
  struct Sample {
    double abs_err = 0.0;  ///< |approx - exact|
    double rel = 0.0;      ///< abs_err / |exact|
    bool has_rel = false;
  };
  static Sample sample(double exact, double approx) {
    Sample s;
    if (std::isnan(exact) || std::isnan(approx)) return s;
    s.abs_err = std::fabs(approx - exact);
    if (exact != 0.0 && std::isfinite(exact)) {
      s.rel = s.abs_err / std::fabs(exact);
      s.has_rel = true;
    }
    return s;
  }

  /// The order-independent part of observe(): integer counts and maxima of
  /// NaN-free values (a NaN abs_err never wins the `>`), so any grouping of
  /// samples gives the same bits.
  void count(const Sample& s) {
    ++samples_;
    if (s.abs_err != 0.0) ++errors_;
    if (s.abs_err > max_abs_) max_abs_ = s.abs_err;
    if (s.has_rel) {
      ++rel_samples_;
      if (s.rel > max_rel_) max_rel_ = s.rel;
    }
  }
  /// The order-dependent part: folds n samples' terms into the two
  /// floating-point sums, in index order, so callers pass samples in sample
  /// order. Adding a skipped sample's +0.0 is exact, since both sums start
  /// at +0.0 and only ever add values >= 0 (or NaN), so they never hold
  /// -0.0.
  void add_sums(const double* abs_err, const double* rel, std::size_t n) {
    double sa = sum_abs_, sr = sum_rel_;
    for (std::size_t i = 0; i < n; ++i) {
      sa += abs_err[i];
      sr += rel[i];
    }
    sum_abs_ = sa;
    sum_rel_ = sr;
  }
  /// Adds another accumulator's counts and maxima, but not its sums.
  void merge_counts(const ErrorStats& o) {
    samples_ += o.samples_;
    errors_ += o.errors_;
    rel_samples_ += o.rel_samples_;
    if (o.max_abs_ > max_abs_) max_abs_ = o.max_abs_;
    if (o.max_rel_ > max_rel_) max_rel_ = o.max_rel_;
  }

  void observe(double exact, double approx) {
    const Sample s = sample(exact, approx);
    count(s);
    add_sums(&s.abs_err, &s.rel, 1);
  }

  State state() const {
    return {samples_, errors_, rel_samples_, max_rel_,
            sum_rel_, sum_abs_, max_abs_};
  }
  static ErrorStats from_state(const State& s) {
    ErrorStats e;
    e.samples_ = s.samples;
    e.errors_ = s.errors;
    e.rel_samples_ = s.rel_samples;
    e.max_rel_ = s.max_rel;
    e.sum_rel_ = s.sum_rel;
    e.sum_abs_ = s.sum_abs;
    e.max_abs_ = s.max_abs;
    return e;
  }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t errors() const { return errors_; }
  /// Fraction of samples whose approx differed from exact.
  double error_rate() const {
    return samples_ ? static_cast<double>(errors_) / static_cast<double>(samples_) : 0.0;
  }
  /// Maximum relative error (ignoring exact==0 samples).
  double max_rel() const { return max_rel_; }
  /// Mean relative error over all samples (errors and non-errors).
  double mean_rel() const {
    return rel_samples_ ? sum_rel_ / static_cast<double>(rel_samples_) : 0.0;
  }
  /// Mean error distance: mean |approx - exact|.
  double med() const {
    return samples_ ? sum_abs_ / static_cast<double>(samples_) : 0.0;
  }
  /// Worst-case error distance: max |approx - exact|.
  double wed() const { return max_abs_; }

 private:
  std::uint64_t samples_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t rel_samples_ = 0;
  double max_rel_ = 0.0;
  double sum_rel_ = 0.0;
  double sum_abs_ = 0.0;
  double max_abs_ = 0.0;
};

}  // namespace ihw::error

#include "error/pmf.h"

#include <sstream>

namespace ihw::error {

ErrorPmf::ErrorPmf(int min_bucket, int max_bucket)
    : min_bucket_(min_bucket),
      max_bucket_(max_bucket),
      counts_(static_cast<std::size_t>(max_bucket - min_bucket + 1), 0) {}

ErrorPmf ErrorPmf::from_state(const State& s) {
  ErrorPmf p(s.min_bucket, s.max_bucket);
  p.samples_ = s.samples;
  p.zero_error_ = s.zero_error;
  if (s.counts.size() == p.counts_.size()) p.counts_ = s.counts;
  return p;
}

double ErrorPmf::error_rate() const {
  if (samples_ == 0) return 0.0;
  return static_cast<double>(samples_ - zero_error_) /
         static_cast<double>(samples_);
}

double ErrorPmf::probability(int bucket) const {
  if (samples_ == 0 || bucket < min_bucket_ || bucket > max_bucket_) return 0.0;
  return static_cast<double>(counts_[static_cast<std::size_t>(bucket - min_bucket_)]) /
         static_cast<double>(samples_);
}

int ErrorPmf::max_nonzero_bucket() const {
  for (int b = max_bucket_; b >= min_bucket_; --b)
    if (counts_[static_cast<std::size_t>(b - min_bucket_)] != 0) return b;
  return min_bucket_ - 1;
}

std::string ErrorPmf::to_string(const std::string& label) const {
  std::ostringstream os;
  os << label << " (error rate " << error_rate() * 100.0 << "%, n=" << samples_
     << ")\n";
  for (int b = min_bucket_; b <= max_bucket_; ++b) {
    const double p = probability(b);
    if (p == 0.0) continue;
    os << "  2^" << b << "%: " << p * 100.0 << "%\n";
  }
  return os.str();
}

}  // namespace ihw::error

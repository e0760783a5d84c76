#include "qmc/halton.h"

#include <stdexcept>

namespace ihw::qmc {
namespace {
constexpr std::uint32_t kPrimes[Halton::kMaxDims] = {2, 3, 5, 7, 11, 13, 17, 19};

// Radical inverse of `index` in base `base`: its base-`base` digits mirrored
// about the radix point.
double radical_inverse(std::uint64_t index, std::uint32_t base) {
  double result = 0.0;
  double f = 1.0 / base;
  while (index > 0) {
    result += f * static_cast<double>(index % base);
    index /= base;
    f /= base;
  }
  return result;
}

}  // namespace

Halton::Halton(int dims, std::uint64_t start_index)
    : dims_(dims), index_(start_index) {
  if (dims < 1 || dims > kMaxDims)
    throw std::invalid_argument("Halton: dims must be in [1,8]");
}

void Halton::next(double* out) {
  for (int d = 0; d < dims_; ++d) out[d] = radical_inverse(index_, kPrimes[d]);
  ++index_;
}

}  // namespace ihw::qmc

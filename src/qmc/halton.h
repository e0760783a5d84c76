#pragma once
// Halton low-discrepancy sequence, a second quasi-MC source used to
// cross-check Sobol'-based characterizations (two independent QMC families
// agreeing is evidence the PMF estimate converged).
#include <cstdint>

namespace ihw::qmc {

/// Radical-inverse Halton sequence in up to 8 dimensions (bases = first 8
/// primes).
class Halton {
 public:
  static constexpr int kMaxDims = 8;

  explicit Halton(int dims, std::uint64_t start_index = 1);

  int dims() const { return dims_; }
  void next(double* out);

 private:
  int dims_;
  std::uint64_t index_;
};

}  // namespace ihw::qmc

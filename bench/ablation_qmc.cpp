// Ablation: why quasi-Monte-Carlo for error characterization (Ch. 4.2's
// methodological choice). Compares the worst-case-error estimate of the
// full-path multiplier under Sobol', Halton, and plain pseudo-random
// sampling as the sample budget grows: the low-discrepancy sequences find
// the error extremes with orders of magnitude fewer samples.
//
// The samples run in fixed chunks whose boundaries include every report
// point, each chunk on the batched span kernel and in parallel; per-chunk
// maxima merge in chunk order (a max of NaN-free values is order-free), so
// the table is identical at any --threads.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "ihw/batch.h"
#include "qmc/halton.h"
#include "qmc/sobol.h"
#include "runtime/parallel.h"

using namespace ihw;

namespace {

constexpr std::uint64_t kChunk = 1 << 14;

// Largest relative error of the full-path multiplier over operand spans.
double max_rel_error(const std::vector<float>& a, const std::vector<float>& b) {
  std::vector<float> approx(a.size());
  batch::acfp_mul_n(a.data(), b.data(), approx.data(), a.size(),
                    AcfpPath::Full, 0);
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double exact = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    m = std::max(m, std::fabs(approx[i] - exact) / exact);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto max_n = static_cast<std::uint64_t>(args.get_int("samples", 1u << 20));
  const double truth = 1.0 / 49.0;  // the Ch. 4.1.2 bound

  // Chunk ends: every multiple of kChunk, every report point 256 * 8^k and
  // the budget itself, so each report reads a prefix of whole chunks.
  std::vector<std::uint64_t> reports, ends;
  for (std::uint64_t r = 256; r <= max_n; r *= 8) reports.push_back(r);
  for (std::uint64_t e = kChunk; e < max_n; e += kChunk) ends.push_back(e);
  ends.insert(ends.end(), reports.begin(), reports.end());
  if (max_n > 0) ends.push_back(max_n);
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());

  // The pseudo-random operands are one sequential stream, so they are drawn
  // here, b before a (the order the original per-sample loop drew them in).
  std::vector<float> mc_a(max_n), mc_b(max_n);
  common::Xoshiro256 rng(3);
  for (std::uint64_t i = 0; i < max_n; ++i) {
    mc_b[i] = 1.0f + rng.uniformf();
    mc_a[i] = 1.0f + rng.uniformf();
  }

  // Per chunk: {Sobol', Halton, pseudo-MC} maxima.
  std::vector<std::array<double, 3>> chunk_max(ends.size());
  runtime::parallel_for(ends.size(), [&](std::uint64_t k) {
    const std::uint64_t begin = k == 0 ? 0 : ends[k - 1];
    const std::size_t m = static_cast<std::size_t>(ends[k] - begin);
    std::vector<float> a(m), b(m);
    double pt[2];
    qmc::Sobol sobol(2);
    sobol.seek(begin);
    for (std::size_t i = 0; i < m; ++i) {
      sobol.next(pt);
      a[i] = 1.0f + static_cast<float>(pt[0]);
      b[i] = 1.0f + static_cast<float>(pt[1]);
    }
    chunk_max[k][0] = max_rel_error(a, b);
    qmc::Halton halton(2, begin + 1);  // Halton points start at index 1
    for (std::size_t i = 0; i < m; ++i) {
      halton.next(pt);
      a[i] = 1.0f + static_cast<float>(pt[0]);
      b[i] = 1.0f + static_cast<float>(pt[1]);
    }
    chunk_max[k][1] = max_rel_error(a, b);
    a.assign(mc_a.begin() + begin, mc_a.begin() + ends[k]);
    b.assign(mc_b.begin() + begin, mc_b.begin() + ends[k]);
    chunk_max[k][2] = max_rel_error(a, b);
  });

  common::Table t({"samples", "Sobol max%", "Halton max%", "pseudo-MC max%",
                   "bound"});
  std::array<double, 3> run_max{};
  auto next_report = reports.begin();
  for (std::size_t k = 0; k < ends.size(); ++k) {
    for (int s = 0; s < 3; ++s) run_max[s] = std::max(run_max[s], chunk_max[k][s]);
    if (next_report != reports.end() && ends[k] == *next_report) {
      t.row()
          .add(static_cast<long long>(ends[k]))
          .add(run_max[0] * 100.0, 4)
          .add(run_max[1] * 100.0, 4)
          .add(run_max[2] * 100.0, 4)
          .add(truth * 100.0, 4);
      ++next_report;
    }
  }
  std::printf("== Ablation: characterization sampling strategy (full-path "
              "multiplier, emax -> %.4f%%) ==\n", truth * 100.0);
  std::printf("%s", t.str().c_str());
  std::printf("(the paper's low-discrepancy choice: stratified points sweep "
              "the mantissa plane systematically instead of waiting for a "
              "lucky draw near the error ridge)\n");
  return 0;
}

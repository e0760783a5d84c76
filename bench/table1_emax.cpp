// Table 1: maximum error of each proposed imprecise floating-point function,
// measured numerically over quasi-Monte-Carlo operand sweeps and compared to
// the paper's analytic bounds.
#include <cstdio>
#include <vector>

#include "common/args.h"
#include "common/table.h"
#include "error/analytic.h"
#include "error/characterize.h"
#include "runtime/parallel.h"

using namespace ihw;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto samples =
      static_cast<std::uint64_t>(args.get_int("samples", 2'000'000));

  namespace an = error::analytic;
  struct Row {
    error::UnitKind kind;
    int param;
    const char* paper_emax;
    double analytic;  // < 0 means unbounded
  };
  const Row rows[] = {
      {error::UnitKind::Rcp, 0, "5.88%", an::rcp_emax()},
      {error::UnitKind::Rsqrt, 0, "11.11%", an::rsqrt_emax()},
      {error::UnitKind::Sqrt, 0, "11.11%", an::sqrt_emax()},
      {error::UnitKind::Log2, 0, "unbounded", -1.0},
      {error::UnitKind::Exp2, 0, "(ext) 6.15%", an::exp2_emax()},
      {error::UnitKind::FpDiv, 0, "5.88%", an::rcp_emax()},
      {error::UnitKind::FpMul, 0, "25%", an::simple_mul_emax()},
      {error::UnitKind::FpAdd, 8, "0.78% (add, TH=8)", an::adder_add_bound(8)},
      {error::UnitKind::FpSub, 8, "unbounded (near-cancel)", -1.0},
      {error::UnitKind::Fma, 8, "unbounded", -1.0},
  };

  common::Table t({"function", "paper emax", "analytic", "measured emax",
                   "mean err", "error rate"});
  // One shared-stream call: rows with the same operand recipe borrow one
  // Sobol' stream, with results bit-identical to per-row calls.
  std::vector<error::CharRequest> reqs;
  for (const auto& r : rows) reqs.push_back({r.kind, r.param});
  const auto results = error::characterize32_many(reqs, samples);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Row& r = rows[i];
    const auto& res = results[i];
    t.row()
        .add(res.label)
        .add(r.paper_emax)
        .add(r.analytic >= 0.0 ? common::pct(r.analytic) : std::string("-"))
        .add(common::pct(res.stats.max_rel()))
        .add(common::pct(res.stats.mean_rel()))
        .add(common::pct(res.stats.error_rate()));
  }
  std::printf("== Table 1: imprecise function set, measured over %llu "
              "quasi-MC samples ==\n",
              static_cast<unsigned long long>(samples));
  std::printf("%s", t.str().c_str());
  std::printf("(log2/sub/fma error percentages are unbounded near zero "
              "outputs; the measured max reflects the sampled range)\n");
  return 0;
}

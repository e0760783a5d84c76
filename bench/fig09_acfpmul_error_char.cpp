// Fig. 9: error-PMF characterization of the improved accuracy-configurable
// FP multiplier: log path and full path with bit-truncation schemes on top.
#include <cstdio>
#include <vector>

#include "common/args.h"
#include "common/table.h"
#include "error/characterize.h"
#include "runtime/parallel.h"

using namespace ihw;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto samples =
      static_cast<std::uint64_t>(args.get_int("samples", 4'000'000));

  struct Cfg {
    error::UnitKind kind;
    int tr;
  };
  const Cfg cfgs[] = {
      {error::UnitKind::AcfpFull, 0},  {error::UnitKind::AcfpFull, 17},
      {error::UnitKind::AcfpFull, 19}, {error::UnitKind::AcfpLog, 0},
      {error::UnitKind::AcfpLog, 17},  {error::UnitKind::AcfpLog, 18},
      {error::UnitKind::AcfpLog, 19},  {error::UnitKind::BitTrunc, 19},
      {error::UnitKind::BitTrunc, 21},
  };

  std::printf("== Fig. 9: accuracy-configurable multiplier error PMFs "
              "(%llu quasi-MC inputs) ==\n",
              static_cast<unsigned long long>(samples));
  // One shared-stream call: every multiplier row borrows one Sobol' stream
  // and one exact-Mul reference, with results bit-identical to per-row calls.
  std::vector<error::CharRequest> reqs;
  for (const auto& c : cfgs) reqs.push_back({c.kind, c.tr});
  const auto results = error::characterize32_many(reqs, samples);

  int lo = 8, hi = -24;
  for (const auto& r : results)
    for (int b = r.pmf.min_bucket(); b <= r.pmf.max_bucket(); ++b)
      if (r.pmf.probability(b) > 0.0) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
  std::vector<std::string> headers{"ceil(log2 err%)"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string label = results[i].label;
    if (cfgs[i].tr) label += ""; else label += "_tr0";
    headers.push_back(label);
  }
  common::Table t(headers);
  for (int b = lo; b <= hi; ++b) {
    t.row().add("2^" + std::to_string(b) + "%");
    for (const auto& r : results) {
      const double p = r.pmf.probability(b);
      t.add(p > 0 ? common::pct(p) : std::string("-"));
    }
  }
  t.row().add("max err");
  for (const auto& r : results) t.add(common::pct(r.stats.max_rel()));
  std::printf("%s", t.str().c_str());
  std::printf("(as truncation deepens the mass shifts right but stays below "
              "the bound; note the jump between log-path tr18 and tr19 the "
              "paper calls out)\n");
  return 0;
}

// Fig. 8: error-PMF characterization of the proposed 32-bit imprecise units
// over a low-discrepancy (quasi-Monte-Carlo) input stream. Buckets are
// x = ceil(log2(err%)) as in the paper; the paper uses 200M inputs -- the
// sample count is a knob (--samples=200000000 reproduces it exactly).
//
// Runs through the memoizing sweep engine: units with the same operand
// recipe share one quasi-MC stream (and exact-Mul reference), and every
// unit's PMF is memoized by fingerprint (--cache-dir=DIR persists it).
#include <cstdio>

#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "error/characterize.h"
#include "runtime/parallel.h"
#include "sweep/bench_run.h"
#include "sweep/sweep.h"

using namespace ihw;

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto samples =
      static_cast<std::uint64_t>(args.get_int("samples", 4'000'000));
  const auto flags = common::SweepFlags::from_args(args);
  sweep::BenchRun run("fig08_error_char", flags);
  const std::string json_path = args.get("json", "");

  const error::UnitKind kinds[] = {
      error::UnitKind::FpAdd, error::UnitKind::FpMul, error::UnitKind::FpDiv,
      error::UnitKind::Rcp,   error::UnitKind::Rsqrt, error::UnitKind::Sqrt,
      error::UnitKind::Log2,  error::UnitKind::Exp2, error::UnitKind::Fma,
  };

  std::printf("== Fig. 8: 32-bit IHW error PMFs (%llu quasi-MC inputs) ==\n",
              static_cast<unsigned long long>(samples));
  std::vector<sweep::CharPoint> points;
  for (auto k : kinds) points.push_back({k, 0, samples});
  std::vector<char> hits;
  sweep::HealthReport health;
  const auto results =
      sweep::characterize_grid32(points, &run.cache(), &hits, &health);
  if (run.drained(health)) return sweep::kDrainExitCode;

  // One table: rows = log2 bucket, columns = units.
  int lo = 8, hi = -24;
  for (const auto& r : results) {
    for (int b = r.pmf.min_bucket(); b <= r.pmf.max_bucket(); ++b)
      if (r.pmf.probability(b) > 0.0) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
  }
  std::vector<std::string> headers{"ceil(log2 err%)"};
  for (const auto& r : results) headers.push_back(r.label);
  common::Table t(headers);
  for (int b = lo; b <= hi; ++b) {
    t.row().add("2^" + std::to_string(b) + "%");
    for (const auto& r : results) {
      const double p = r.pmf.probability(b);
      t.add(p > 0 ? common::pct(p) : std::string("-"));
    }
  }
  t.row().add("error rate");
  for (const auto& r : results) t.add(common::pct(r.pmf.error_rate()));
  std::printf("%s", t.str().c_str());
  std::printf("(fpadd and log2 are frequent-small-magnitude; the others "
              "cluster toward -- but stay below -- their analytic bound)\n");
  sweep::Json rows = sweep::Json::array();
  if (!json_path.empty()) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      char hex[24];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(
                        sweep::char_fingerprint(points[i], false)));
      rows.push(sweep::Json::object()
                    .set("unit", results[i].label)
                    .set("fingerprint", hex)
                    .set("error_rate", results[i].pmf.error_rate())
                    .set("max_rel_err", results[i].stats.max_rel())
                    .set("cache_hit", hits[i] != 0)
                    .set("status", hits[i] != 0 ? "cache_hit" : "evaluated"));
    }
  }
  return run.finish(health, json_path, std::move(rows),
                    sweep::Json::object().set(
                        "samples", static_cast<std::uint64_t>(samples)));
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

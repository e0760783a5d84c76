// Fig. 14: power-quality trade-off design space of the accuracy-configurable
// FP multiplier, single and double precision. For every configuration we
// measure the maximum error over a quasi-MC sweep and read its power from
// the gate-model curves, reporting the power-reduction factor vs DesignWare.
//
// The characterization grid runs through the memoizing sweep engine
// (DESIGN.md §11): all datapaths of one precision share a single quasi-MC
// operand stream and exact-reference pass, and every point is memoized by
// fingerprint -- pass --cache-dir=DIR to persist records across runs, or to
// share them between concurrent runs. Results are bit-exact either way, so
// stdout is byte-identical to a cache-less run (and to the pre-sweep
// implementation).
#include <cstdio>

#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "error/characterize.h"
#include "power/nfm.h"
#include "runtime/parallel.h"
#include "sweep/bench_run.h"
#include "sweep/sweep.h"

using namespace ihw;

namespace {

// Returns false when a graceful drain interrupted the grid: nothing is
// printed for this precision (stdout stays all-or-nothing) and the caller
// exits with the drain code; completed groups are already stored.
bool sweep_precision(bool is64, std::uint64_t samples,
                     const power::SynthesisDb& db, sweep::EvalCache* cache,
                     sweep::HealthReport* health, sweep::Json* json_rows) {
  const double dw =
      db.multiplier(MulMode::Precise, 0, is64).power_mw;
  struct Line {
    const char* name;
    error::UnitKind kind;
    MulMode mode;
    std::vector<int> trs;
  };
  const int fb = is64 ? 52 : 23;
  std::vector<int> trs_path, trs_bt;
  for (int tr = 0; tr <= fb - 3; tr += (is64 ? 7 : 3)) trs_path.push_back(tr);
  trs_bt = trs_path;
  const Line lines[] = {
      {"full_path", error::UnitKind::AcfpFull, MulMode::MitchellFull, trs_path},
      {"log_path", error::UnitKind::AcfpLog, MulMode::MitchellLog, trs_path},
      {"bit_trunc", error::UnitKind::BitTrunc, MulMode::BitTruncated, trs_bt},
  };

  // One shared-stream grid per precision: every (datapath, trunc) point of
  // this table shares the operand stream and the exact product reference.
  std::vector<sweep::CharPoint> points;
  for (const auto& l : lines)
    for (int tr : l.trs) points.push_back({l.kind, tr, samples});
  std::vector<char> hits;
  const auto results =
      is64 ? sweep::characterize_grid64(points, cache, &hits, health)
           : sweep::characterize_grid32(points, cache, &hits, health);
  if (sweep::drain_requested()) return false;

  common::Table t({"datapath", "trunc", "max err%", "power(mW)", "reduction"});
  std::size_t idx = 0;
  for (const auto& l : lines) {
    for (int tr : l.trs) {
      const auto& res = results[idx];
      const auto m = db.multiplier(l.mode, tr, is64);
      t.row()
          .add(l.name)
          .add(tr)
          .add(res.stats.max_rel() * 100.0, 2)
          .add(m.power_mw, 2)
          .add(common::fmt(dw / m.power_mw, 1) + "X");
      if (json_rows != nullptr) {
        char hex[24];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          sweep::char_fingerprint(points[idx], is64)));
        json_rows->push(sweep::Json::object()
                            .set("precision", is64 ? 64 : 32)
                            .set("datapath", l.name)
                            .set("trunc", tr)
                            .set("fingerprint", hex)
                            .set("max_err_pct", res.stats.max_rel() * 100.0)
                            .set("power_mw", m.power_mw)
                            .set("reduction", dw / m.power_mw)
                            .set("cache_hit", hits[idx] != 0)
                            .set("status", hits[idx] != 0 ? "cache_hit"
                                                          : "evaluated"));
      }
      ++idx;
    }
  }
  std::printf("-- %d-bit imprecise FP multiplier --\n", is64 ? 64 : 32);
  std::printf("%s", t.str().c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto samples =
      static_cast<std::uint64_t>(args.get_int("samples", 400'000));
  sweep::BenchRun run("fig14_power_quality",
                      common::SweepFlags::from_args(args));
  const std::string json_path = args.get("json", "");
  sweep::Json rows = sweep::Json::array();
  sweep::Json* json_rows = json_path.empty() ? nullptr : &rows;
  sweep::HealthReport health;

  const power::SynthesisDb db;
  std::printf("== Fig. 14: power-quality trade-off, accuracy-configurable "
              "multiplier ==\n");
  if (!sweep_precision(false, samples, db, &run.cache(), &health, json_rows) ||
      !sweep_precision(true, samples, db, &run.cache(), &health, json_rows)) {
    run.drained(health);
    return sweep::kDrainExitCode;
  }
  std::printf("(paper: log path >25X at tr19 / 18%% err; intuitive "
              "truncation saturates near 2.3X at ~21%% err; 49X at tr48 for "
              "64-bit)\n");
  return run.finish(health, json_path, std::move(rows),
                    sweep::Json::object().set(
                        "samples", static_cast<std::uint64_t>(samples)));
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

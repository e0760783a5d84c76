// Fig. 15 / Table 5 (HotSpot row): functional simulation of the HotSpot
// thermal kernel with all proposed IHW components enabled. Reports the
// temperature-field quality (MAE / MSE / WED), the estimated system-level
// power saving, and writes precise/imprecise heat maps as PGM images.
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/table.h"
#include "quality/grid_metrics.h"
#include "runtime/parallel.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  HotspotParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 512));
  p.iterations = static_cast<int>(args.get_int("iterations", 60));
  const bool dump = args.get_bool("dump", false);

  const auto input = make_hotspot_input(p, 7);
  common::GridF ref, imp;
  gpu::PerfCounters counters;
  {
    gpu::FpContext ctx(IhwConfig::precise());
    gpu::ScopedContext scope(ctx);
    ref = run_hotspot_batched(p, input);
    counters = ctx.counters();
  }
  const auto cfg = IhwConfig::all_imprecise();
  {
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    imp = run_hotspot_batched(p, input);
  }

  gpu::GpuPowerParams params;
  params.dram_fraction = 0.15;
  const auto rep = analyze_gpu_run(counters, cfg, params);

  common::Table t({"metric", "value", "paper"});
  t.row().add("MAE (K)").add(quality::mae(ref, imp), 4).add("0.05");
  t.row().add("MSE (K^2)").add(quality::mse(ref, imp), 4).add("0.003");
  t.row().add("WED (K)").add(quality::wed(ref, imp), 4).add("-");
  t.row().add("FPU+SFU power share").add(common::pct(rep.breakdown.arith_share())).add("~35%");
  t.row().add("arith power saving").add(common::pct(rep.savings.arith_power_impr)).add("91.54%");
  t.row().add("system power saving").add(common::pct(rep.savings.system_power_impr)).add("32.06%");
  std::printf("== Fig. 15 / Table 5: HotSpot %zux%zu, %d iterations, config "
              "[%s] ==\n",
              p.rows, p.cols, p.iterations, cfg.describe().c_str());
  std::printf("%s", t.str().c_str());

  if (dump) {
    common::write_pgm("hotspot_precise.pgm", ref);
    common::write_pgm("hotspot_imprecise.pgm", imp);
    std::printf("wrote hotspot_precise.pgm / hotspot_imprecise.pgm\n");
  }
  std::printf("(like Rodinia's shipped inputs, the initial field is at "
              "steady state, so the benchmark measures equilibrium tracking; "
              "the heat-map peaks are identical -- see EXPERIMENTS.md)\n");
  return 0;
}

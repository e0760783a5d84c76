// Ablation: the adder's structural threshold TH. The paper fixes TH=8 for
// every system study; this sweep shows why -- quality saturates near TH=8
// for HotSpot-like workloads while adder power keeps growing with TH.
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/table.h"
#include "error/characterize.h"
#include "power/nfm.h"
#include "quality/grid_metrics.h"
#include "runtime/parallel.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  HotspotParams p;
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 192));
  p.iterations = static_cast<int>(args.get_int("iterations", 40));
  p.steady_init = false;  // transient run keeps the adder on the critical path
  const auto input = make_hotspot_input(p, 7);
  const auto ref = run_hotspot_batched(p, input);

  const power::SynthesisDb db;
  const double dw_power = db.dwip(power::OpKind::FAdd).power_mw;

  common::Table t({"TH", "adder emax", "hotspot MAE (K)", "adder power",
                   "vs DWIP"});
  for (int th : {2, 4, 6, 8, 10, 12, 16, 20}) {
    IhwConfig cfg;
    cfg.add_enabled = true;
    cfg.add_th = th;
    common::GridF imp;
    {
      gpu::FpContext ctx(cfg);
      gpu::ScopedContext scope(ctx);
      imp = run_hotspot_batched(p, input);
    }
    const auto err = error::characterize32(error::UnitKind::FpAdd, th, 200000);
    const auto m = db.ihw(power::OpKind::FAdd, th);
    t.row()
        .add(th)
        .add(common::pct(err.stats.max_rel()))
        .add(quality::mae(ref, imp), 4)
        .add(common::fmt(m.power_mw, 2) + " mW")
        .add(common::pct(m.power_mw / dw_power));
  }
  std::printf("== Ablation: adder threshold TH (adder-only imprecision, "
              "HotSpot transient) ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(two regimes: the unit-level emax collapses by TH=8 -- the "
              "knee the paper picks at ~31%% of DWIP adder power -- while "
              "this transient workload's MAE sits on the dropped-delta floor "
              "until TH~20, i.e. until increments below T*2^-TH survive "
              "alignment; equilibrium workloads, like the paper's, don't pay "
              "that floor)\n");
  return 0;
}

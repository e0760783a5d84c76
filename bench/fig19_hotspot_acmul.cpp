// Fig. 19: HotSpot power-quality trade-off with the improved
// accuracy-configurable multiplier, multiplier-only substitution (Ch. 5.3.2):
// MAE / WED as a function of truncation for log path, full path, and the
// intuitive bit-truncation baseline, each annotated with its power reduction.
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/table.h"
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
  p.rows = p.cols = static_cast<std::size_t>(args.get_int("size", 256));
  p.iterations = static_cast<int>(args.get_int("iterations", 40));
  p.steady_init = false;  // cold-start transient: the multiplier-sensitivity
                          // study needs the heating dynamics, not equilibrium

  const auto input = make_hotspot_input(p, 7);
  const auto ref = run_hotspot_batched(p, input);

  const power::SynthesisDb db;
  const double dw = db.multiplier(MulMode::Precise, 0, false).power_mw;

  common::Table t({"datapath", "trunc", "MAE (K)", "WED (K)", "power reduction"});
  for (MulMode mode : {MulMode::MitchellLog, MulMode::MitchellFull,
                       MulMode::BitTruncated}) {
    for (int tr : {0, 10, 15, 17, 19, 21, 22}) {
      const auto cfg = IhwConfig::mul_only(mode, tr);
      common::GridF imp;
      {
        gpu::FpContext ctx(cfg);
        gpu::ScopedContext scope(ctx);
        imp = run_hotspot_batched(p, input);
      }
      const auto m = db.multiplier(mode, tr, false);
      t.row()
          .add(to_string(mode))
          .add(tr)
          .add(quality::mae(ref, imp), 4)
          .add(quality::wed(ref, imp), 3)
          .add(common::fmt(dw / m.power_mw, 1) + "X");
    }
  }
  std::printf("== Fig. 19: HotSpot %zux%zu, multiplier-only substitution ==\n",
              p.rows, p.cols);
  std::printf("%s", t.str().c_str());
  std::printf("(paper: log path tr19 at 26X gives MAE 1.2K; 22-bit intuitive "
              "truncation has ~8x the MAE at only 6X reduction)\n");
  return 0;
}

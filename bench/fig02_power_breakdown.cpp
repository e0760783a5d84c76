// Fig. 2: arithmetic power consumption share for compute-intensive
// benchmarks (GPUWattch-style component breakdown on a GTX480-class model).
// The paper's observation: FPU+SFU reach 27-38% of total GPU power for these
// kernels while the integer lane stays below 10%.
#include <cstdio>

#include "apps/cp.h"
#include "apps/hotspot.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "common/args.h"
#include "common/table.h"
#include "runtime/parallel.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

struct BenchRun {
  const char* name;
  gpu::PerfCounters counters;
  gpu::GpuPowerParams params;
};

}  // namespace

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto scale = args.get_double("scale", 1.0);

  std::vector<BenchRun> runs;

  {  // HotSpot: tiled stencil, high on-chip reuse.
    HotspotParams p;
    p.rows = p.cols = static_cast<std::size_t>(256 * scale);
    p.iterations = 20;
    const auto in = make_hotspot_input(p, 7);
    BenchRun r{"hotspot", {}, {}};
    r.params.dram_fraction = 0.15;
    r.counters = run_with_config(IhwConfig::precise(),
                                 [&] { run_hotspot_batched(p, in); });
    runs.push_back(r);
  }
  {  // SRAD: two full-grid passes streaming five derivative grids.
    SradParams p;
    p.rows = p.cols = static_cast<std::size_t>(128 * scale);
    p.iterations = 25;
    const auto in = make_srad_input(p, 11);
    BenchRun r{"srad", {}, {}};
    r.params.dram_fraction = 0.30;
    r.counters = run_with_config(IhwConfig::precise(),
                                 [&] { run_srad_batched(p, in.image); });
    runs.push_back(r);
  }
  {  // RayTracing: compute bound, divergent control flow.
    RayParams p;
    p.width = p.height = static_cast<std::size_t>(192 * scale);
    BenchRun r{"ray", {}, {}};
    r.params.dram_fraction = 0.25;
    r.params.frontend_pj = 14.0;  // divergence: more fetch work per useful op
    r.counters = run_with_config(IhwConfig::precise(),
                                 [&] { render_ray<gpu::SimFloat>(p); });
    runs.push_back(r);
  }
  {  // CP: long per-thread reduction over the atom array.
    CpParams p;
    p.grid = static_cast<std::size_t>(96 * scale);
    const auto atoms = make_cp_atoms(p, 3);
    BenchRun r{"cp", {}, {}};
    r.params.dram_fraction = 0.05;  // atom array fits in cache
    r.counters = run_with_config(IhwConfig::precise(),
                                 [&] { run_cp_batched(p, atoms); });
    runs.push_back(r);
  }

  common::Table t({"benchmark", "FPU", "SFU", "FPU+SFU", "INT(ALU)",
                   "frontend", "memory", "static", "total(W)", "bound"});
  for (auto& r : runs) {
    const auto rep = analyze_gpu_run(r.counters, IhwConfig::precise(), r.params);
    const auto& b = rep.breakdown;
    t.row()
        .add(r.name)
        .add(common::pct(b.fpu_share()))
        .add(common::pct(b.sfu_share()))
        .add(common::pct(b.arith_share()))
        .add(common::pct(b.alu_share()))
        .add(common::pct(b.frontend_w / b.total_w))
        .add(common::pct(b.mem_w / b.total_w))
        .add(common::pct(b.static_w / b.total_w))
        .add(b.total_w, 1)
        .add(b.time.bound_by());
  }
  std::printf("== Fig. 2: GPU power breakdown under precise hardware ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(paper: FPU+SFU 27-38%% for compute-intensive kernels, "
              "integer lane < 10%%)\n");
  return 0;
}

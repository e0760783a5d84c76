// Table 6: benchmark summary -- per-application FP-multiplication counts,
// the share eligible for the accuracy-configurable multiplier, precision,
// quality metric and domain (measured on this repo's workload sizes).
#include <cstdio>

#include "apps/art.h"
#include "apps/cp.h"
#include "apps/gromacs.h"
#include "apps/hotspot.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/sphinx.h"
#include "common/table.h"
#include "common/args.h"
#include "runtime/parallel.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

std::string count_str(std::uint64_t n) {
  char buf[32];
  if (n >= 1'000'000'000ull)
    std::snprintf(buf, sizeof buf, "%.2fB", static_cast<double>(n) * 1e-9);
  else if (n >= 1'000'000ull)
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(n) * 1e-6);
  else
    std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(n) * 1e-3);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  common::Args args(argc, argv);
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  common::Table t({"benchmark", "precision", "fp mults", "quality metric",
                   "domain"});

  {
    HotspotParams p;
    p.rows = p.cols = 256;
    p.iterations = 30;
    const auto in = make_hotspot_input(p, 7);
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { run_hotspot_batched(p, in); });
    t.row().add("Hotspot (GPU)").add("single").add(count_str(c[gpu::OpClass::FMul]))
        .add("MAE, WED").add("physics simulation");
  }
  {
    CpParams p;
    const auto atoms = make_cp_atoms(p, 3);
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { run_cp_batched(p, atoms); });
    t.row().add("CP (GPU)").add("single").add(count_str(c[gpu::OpClass::FMul]))
        .add("MAE, WED").add("ion placement");
  }
  {
    RayParams p;
    p.width = p.height = 192;
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { render_ray<gpu::SimFloat>(p); });
    t.row().add("RayTracing (GPU)").add("single").add(count_str(c[gpu::OpClass::FMul]))
        .add("SSIM").add("3D graphics");
  }
  {
    ArtParams p;
    const auto in = make_art_input(p, 5);
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { run_art<gpu::SimDouble>(p, in); });
    t.row().add("179.art (CPU)").add("double").add(count_str(c[gpu::OpClass::FMul]))
        .add("vigilance").add("neural network");
  }
  {
    MdParams p;
    p.steps = 40;
    const auto st = make_md_state(p, 9);
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { run_md<gpu::SimDouble>(p, st); });
    t.row().add("435.gromacs (CPU)").add("double").add(count_str(c[gpu::OpClass::FMul]))
        .add("energy err%").add("molecular dynamics");
  }
  {
    SphinxParams p;
    const auto corpus = make_sphinx_corpus(p, 42);
    const auto c = run_with_config(IhwConfig::precise(),
                                   [&] { run_sphinx<gpu::SimDouble>(p, corpus); });
    t.row().add("482.sphinx3 (CPU)").add("double").add(count_str(c[gpu::OpClass::FMul]))
        .add("words correct").add("voice recognition");
  }

  std::printf("== Table 6: CPU and GPU benchmark summary (this repo's "
              "workload sizes) ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(the paper's counts refer to full SPEC/Rodinia inputs; the "
              "mix and precision per benchmark match)\n");
  return 0;
}

// Table 5: system-level power savings summary across the three GPU
// applications (one aggregated harness; the per-figure binaries report the
// same rows with quality detail).
//
// The three precise reference runs go through the memoizing sweep engine:
// each is a fingerprinted grid point evaluated across the thread pool and
// memoized (--cache-dir=DIR persists the counters), and the three RAY rows
// share the single RAY reference run instead of re-rendering.
#include <cstdio>

#include "apps/hotspot.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/srad.h"
#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "runtime/parallel.h"
#include "sweep/bench_run.h"
#include "sweep/sweep.h"

using namespace ihw;
using namespace ihw::apps;

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const double scale = args.get_double("scale", 1.0);
  const auto flags = common::SweepFlags::from_args(args);
  sweep::BenchRun run("table5_system_savings", flags);
  const sweep::FailPolicy policy = sweep::make_fail_policy(flags);
  const std::string json_path = args.get("json", "");

  HotspotParams hs;
  hs.rows = hs.cols = static_cast<std::size_t>(256 * scale);
  hs.iterations = 30;
  SradParams sr;
  sr.rows = sr.cols = static_cast<std::size_t>(160 * scale);
  sr.iterations = 40;
  RayParams ray;
  ray.width = ray.height = static_cast<std::size_t>(192 * scale);

  const IhwConfig precise = IhwConfig::precise();
  const std::vector<sweep::Workload> workloads = {
      {"hotspot",
       {{"rows", double(hs.rows)}, {"cols", double(hs.cols)},
        {"iterations", double(hs.iterations)}},
       7},
      {"srad",
       {{"rows", double(sr.rows)}, {"cols", double(sr.cols)},
        {"iterations", double(sr.iterations)}},
       11},
      {"ray", {{"width", double(ray.width)}, {"height", double(ray.height)}}, 0},
  };

  // One grid point per precise reference run; the pool evaluates cold
  // points concurrently and equal fingerprints collapse to one evaluation.
  std::vector<sweep::GridPoint> points;
  points.push_back({workloads[0].fingerprint(&precise), [&] {
                      sweep::EvalRecord rec;
                      const auto in = make_hotspot_input(hs, 7);
                      rec.perf = run_with_config(precise, [&] {
                        run_hotspot_batched(hs, in);
                      });
                      return rec;
                    }});
  points.push_back({workloads[1].fingerprint(&precise), [&] {
                      sweep::EvalRecord rec;
                      const auto in = make_srad_input(sr, 11);
                      rec.perf = run_with_config(precise, [&] {
                        run_srad_batched(sr, in.image);
                      });
                      return rec;
                    }});
  points.push_back({workloads[2].fingerprint(&precise), [&] {
                      sweep::EvalRecord rec;
                      rec.perf = run_with_config(
                          precise, [&] { render_ray<gpu::SimFloat>(ray); });
                      return rec;
                    }});
  const auto grid = sweep::run_grid(points, &run.cache(), policy);
  if (run.drained(grid.health)) return sweep::kDrainExitCode;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (grid.status[i] == sweep::PointStatus::Failed)
      std::fprintf(stderr, "[sweep] point %zu failed: %s\n", i,
                   grid.error_message(i).c_str());

  common::Table t({"application", "config", "sys saving", "paper",
                   "arith saving", "paper "});
  sweep::Json rows = sweep::Json::array();
  auto add_json = [&](const char* app, const IhwConfig& cfg, std::size_t pt,
                      const power::SystemSavings& s) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(points[pt].fp));
    rows.push(sweep::Json::object()
                  .set("application", app)
                  .set("config", cfg.describe())
                  .set("fingerprint", hex)
                  .set("sys_saving", s.system_power_impr)
                  .set("arith_saving", s.arith_power_impr)
                  .set("cache_hit", grid.cache_hit[pt] != 0)
                  .set("status", sweep::to_string(grid.status[pt])));
  };

  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.15;
    const auto rep = analyze_gpu_run(grid.records[0].perf,
                                     IhwConfig::all_imprecise(), params);
    t.row()
        .add("Hotspot")
        .add("all IHW")
        .add(common::pct(rep.savings.system_power_impr))
        .add("32.06%")
        .add(common::pct(rep.savings.arith_power_impr))
        .add("91.54%");
    add_json("Hotspot", IhwConfig::all_imprecise(), 0, rep.savings);
  }
  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.30;
    const auto rep = analyze_gpu_run(grid.records[1].perf,
                                     IhwConfig::all_imprecise(), params);
    t.row()
        .add("SRAD")
        .add("all IHW")
        .add(common::pct(rep.savings.system_power_impr))
        .add("24.23%")
        .add(common::pct(rep.savings.arith_power_impr))
        .add("90.68%");
    add_json("SRAD", IhwConfig::all_imprecise(), 1, rep.savings);
  }
  {
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.25;
    params.frontend_pj = 14.0;
    const struct {
      const char* name;
      IhwConfig cfg;
      const char* sys;
      const char* arith;
    } ray_rows[] = {
        {"RAY(rcp,add,sqrt)", IhwConfig::ray_conservative(), "10.24%", "36.14%"},
        {"RAY(rcp,add,sqrt,rsqrt)", IhwConfig::ray_with_rsqrt(), "11.50%", "40.59%"},
        {"RAY(rcp,add,sqrt,fpmul_fp)", IhwConfig::ray_with_full_path_mul(0),
         "13.56%", "47.86%"},
    };
    for (const auto& r : ray_rows) {
      const auto rep = analyze_gpu_run(grid.records[2].perf, r.cfg, params);
      t.row()
          .add(r.name)
          .add(r.cfg.describe())
          .add(common::pct(rep.savings.system_power_impr))
          .add(r.sys)
          .add(common::pct(rep.savings.arith_power_impr))
          .add(r.arith);
      add_json(r.name, r.cfg, 2, rep.savings);
    }
  }

  std::printf("== Table 5: system-level power savings ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(ordering holds: Hotspot > SRAD > RAY, and within RAY the "
              "savings grow with each enabled unit)\n");
  return run.finish(grid.health, json_path, std::move(rows),
                    sweep::Json::object().set("scale", scale));
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

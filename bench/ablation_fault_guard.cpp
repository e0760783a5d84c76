// Ablation: fault-rate sweep x online guard (DESIGN.md §9). Voltage
// overscaling past the critical-path margin turns an imprecise unit's
// bounded approximation error into unbounded timing errors; this bench
// sweeps that fault rate over two full applications and shows the
// difference between unguarded collapse and the guard's graceful per-unit
// degradation.
//
// The sweep runs through the memoizing engine (DESIGN.md §11): the precise
// references and generated inputs are lazily shared across all points, each
// (app, rate, guard) point is fingerprinted and memoized (--cache-dir=DIR
// persists rows across runs), and cold points evaluate concurrently across
// the thread pool. Table output is byte-identical to the sequential sweep.
//
//   --threads=N      worker threads (0 = hardware concurrency)
//   --fault-rate=R   restrict the sweep to one per-op fault probability
//   --guard=0|1      restrict to unguarded / guarded runs
//   --retry          also re-run tripped blocks precise (guarded rows)
//   --abft=MODE      detect|recover: add the MLP protection comparison
//                    (unguarded vs GuardedDispatch vs checksum ABFT) on the
//                    same fault-rate axis; default off, stdout unchanged
//   --size=N         HotSpot grid = N x N, RAY image = N x N (default 128)
//   --seed=S         fault-injection seed
//   --cache-dir=D    persist per-point records under D
//   --json=PATH      structured results (fingerprint/quality/cache per row)
//   --resume         continue a killed run from the records in --cache-dir
//   --isolate        keep going past a failed point (exit 3 at the end)
//   --deadline=S     soft per-point deadline in seconds (0 = off)
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/hotspot.h"
#include "apps/mlp.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "fault/spec.h"
#include "quality/grid_metrics.h"
#include "quality/ssim.h"
#include "runtime/parallel.h"
#include "sweep/bench_run.h"
#include "sweep/shared.h"
#include "sweep/sweep.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

std::string rate_str(double r) {
  if (r == 0.0) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0e", r);
  return buf;
}

long long sum(const std::array<std::uint64_t, fault::kNumUnitClasses>& a) {
  std::uint64_t s = 0;
  for (auto v : a) s += v;
  return static_cast<long long>(s);
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  const int threads = runtime::configure_threads_from_args(args);
  std::printf("[runtime] threads=%d\n", threads);

  const auto size = static_cast<std::size_t>(args.get_int("size", 128));
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 0x51ce));
  const bool retry = args.get_bool("retry", false);
  const auto flags = common::SweepFlags::from_args(args);
  sweep::BenchRun run("ablation_fault_guard", flags);
  const sweep::FailPolicy policy = sweep::make_fail_policy(flags);
  const std::string json_path = args.get("json", "");

  std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
  if (args.has("fault-rate")) rates = {args.get_double("fault-rate", 0.0)};
  std::vector<bool> guards = {false, true};
  if (args.has("guard")) guards = {args.get_bool("guard", true)};

  HotspotParams hp;
  hp.rows = hp.cols = size;
  hp.iterations = 8;
  hp.steady_init = false;
  RayParams rp;
  rp.width = rp.height = size;

  // Shared inputs and precise references (the fault layer never touches
  // precise datapaths): computed at most once, by whichever point demands
  // them first -- a fully warm-cache run never materializes them at all.
  sweep::Shared<HotspotInput> hs_input([&] { return make_hotspot_input(hp, 7); });
  sweep::Shared<common::GridF> hs_ref([&] {
    common::GridF ref;
    run_with_config(IhwConfig::precise(),
                    [&] { ref = run_hotspot_batched(hp, hs_input.get()); });
    return ref;
  });
  sweep::Shared<common::RgbImage> ray_ref([&] { return render_ray<float>(rp); });

  const sweep::Workload hs_work{
      "hotspot",
      {{"rows", double(hp.rows)}, {"cols", double(hp.cols)},
       {"iterations", double(hp.iterations)}, {"steady_init", 0.0}},
      7};
  const sweep::Workload ray_work{
      "ray", {{"width", double(rp.width)}, {"height", double(rp.height)}}, 0};

  // One grid point per table row, in row order.
  struct Row {
    const char* app;
    double rate;
    const char* gname;
    const char* metric;  // quality metric name for table/json
  };
  std::vector<Row> rows_meta;
  std::vector<sweep::GridPoint> points;
  for (double rate : rates) {
    for (bool guard : guards) {
      IhwConfig cfg = IhwConfig::all_imprecise();
      cfg.faults = fault::FaultConfig::uniform(rate, seed);
      cfg.guard.enabled = guard;
      cfg.guard.retry_epoch = guard && retry;
      const char* gname = guard ? (retry ? "on+retry" : "on") : "off";

      rows_meta.push_back({"hotspot", rate, gname, "mae"});
      points.push_back({hs_work.fingerprint(&cfg), [&, cfg] {
                          sweep::EvalRecord rec;
                          common::GridF out;
                          const auto run = run_guarded(cfg, [&] {
                            out = run_hotspot_batched(hp, hs_input.get());
                          });
                          rec.perf = run.perf;
                          rec.faults = run.faults;
                          rec.set_metric("quality",
                                         quality::mae(hs_ref.get(), out));
                          return rec;
                        }});

      rows_meta.push_back({"ray", rate, gname, "ssim"});
      points.push_back({ray_work.fingerprint(&cfg), [&, cfg] {
                          sweep::EvalRecord rec;
                          common::RgbImage out;
                          const auto run = run_guarded(
                              cfg, [&] { out = render_ray<gpu::SimFloat>(rp); });
                          rec.perf = run.perf;
                          rec.faults = run.faults;
                          rec.set_metric(
                              "quality", quality::ssim_rgb(ray_ref.get(), out));
                          return rec;
                        }});
    }
  }

  // --abft arm: the same fault-rate axis applied to MLP inference, comparing
  // the three protection schemes head to head -- nothing, GuardedDispatch's
  // per-op precise screen, and the checksum ABFT layer (DESIGN.md §15).
  // Quality is the logit MAE against the fault-free *imprecise* run, so a
  // perfect protection scheme scores 0 even though the multiplier is
  // approximate; elapsed_ms shows what each scheme costs.
  const auto abft_mode = static_cast<gemm::AbftMode>(flags.abft);
  apps::MlpParams mp;
  mp.samples = 128;
  sweep::Shared<std::vector<float>> mlp_ref([&] {
    apps::MlpResult res;
    run_with_config(IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                    [&] { res = apps::run_mlp(mp); });
    return std::move(res.logits);
  });
  struct AbftRow {
    double rate;
    std::string arm;
  };
  std::vector<AbftRow> abft_meta;
  const std::size_t abft_base = points.size();
  if (flags.abft != 0) {
    for (double rate : rates) {
      for (int arm = 0; arm < 3; ++arm) {
        IhwConfig cfg = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
        cfg.faults = fault::FaultConfig::uniform(rate, seed);
        cfg.guard.enabled = arm == 1;
        apps::MlpParams p = mp;
        p.gemm.abft = arm == 2 ? abft_mode : gemm::AbftMode::kOff;
        sweep::Workload work{"mlp",
                             {{"samples", double(p.samples)},
                              {"dim", double(p.dim)},
                              {"hidden", double(p.hidden)},
                              {"classes", double(p.classes)},
                              {"accum", double(static_cast<int>(p.gemm.accum))}},
                             p.seed};
        if (p.gemm.abft != gemm::AbftMode::kOff)
          work.params.emplace_back("abft",
                                   double(static_cast<int>(p.gemm.abft)));
        abft_meta.push_back(
            {rate, arm == 0   ? "none"
                   : arm == 1 ? "guard"
                              : "abft:" + gemm::to_string(abft_mode)});
        points.push_back({work.fingerprint(&cfg), [&, cfg, p] {
                            sweep::EvalRecord rec;
                            apps::MlpResult res;
                            const auto w0 = std::chrono::steady_clock::now();
                            const auto run =
                                run_guarded(cfg, [&] { res = apps::run_mlp(p); });
                            const double wall =
                                std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - w0)
                                    .count();
                            rec.perf = run.perf;
                            rec.faults = run.faults;
                            const auto& ref = mlp_ref.get();
                            double mae = 0.0;
                            for (std::size_t i = 0; i < ref.size(); ++i)
                              mae += std::fabs(double(res.logits[i]) -
                                               double(ref[i]));
                            rec.set_metric("quality", mae / double(ref.size()));
                            rec.set_metric("elapsed_ms", wall);
                            rec.set_metric("abft_detections",
                                           double(res.abft.detections));
                            rec.set_metric("abft_recovered",
                                           double(res.abft.blocks_recovered));
                            rec.set_metric("abft_fp_screens",
                                           double(res.abft.fp_screens));
                            return rec;
                          }});
      }
    }
  }

  const auto grid = sweep::run_grid(points, &run.cache(), policy);
  if (run.drained(grid.health)) return sweep::kDrainExitCode;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (grid.status[i] == sweep::PointStatus::Failed)
      std::fprintf(stderr, "[sweep] point %zu failed: %s\n", i,
                   grid.error_message(i).c_str());

  common::Table t({"app", "fault rate", "guard", "quality", "injected",
                   "trips", "degr epochs", "run degr", "retried"});
  sweep::Json jrows = sweep::Json::array();
  for (std::size_t i = 0; i < abft_base; ++i) {
    const Row& r = rows_meta[i];
    const sweep::EvalRecord& rec = grid.records[i];
    const double q = rec.metric("quality");
    t.row()
        .add(r.app)
        .add(rate_str(r.rate))
        .add(r.gname)
        .add(std::string(r.metric) + "=" + common::fmt(q, 4))
        .add(static_cast<long long>(rec.faults.total_injected()))
        .add(static_cast<long long>(rec.faults.total_trips()))
        .add(sum(rec.faults.degraded_epochs))
        .add(sum(rec.faults.run_degradations))
        .add(static_cast<long long>(rec.faults.retried_epochs));
    if (!json_path.empty()) {
      char hex[24];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(points[i].fp));
      jrows.push(sweep::Json::object()
                     .set("app", r.app)
                     .set("fault_rate", r.rate)
                     .set("guard", r.gname)
                     .set("fingerprint", hex)
                     .set(r.metric, q)
                     .set("injected", rec.faults.total_injected())
                     .set("cache_hit", grid.cache_hit[i] != 0)
                     .set("status", sweep::to_string(grid.status[i])));
    }
  }

  std::printf("== Ablation: fault rate x guard (HotSpot MAE / RAY SSIM) ==\n");
  std::printf("%s", t.str().c_str());
  std::printf(
      "(unguarded, exponent-bit timing errors send MAE unbounded and SSIM "
      "toward 0; the guard recovers corrupt results against the precise "
      "datapath and its breaker degrades persistently-failing unit classes "
      "to nominal voltage, so quality degrades gracefully instead)\n");

  if (flags.abft != 0) {
    common::Table at({"app", "fault rate", "protection", "logit mae",
                      "wall ms", "injected", "abft det", "abft rec",
                      "screens"});
    for (std::size_t i = abft_base; i < points.size(); ++i) {
      const AbftRow& r = abft_meta[i - abft_base];
      const sweep::EvalRecord& rec = grid.records[i];
      at.row()
          .add("mlp")
          .add(rate_str(r.rate))
          .add(r.arm)
          .add(rec.metric("quality"), 6)
          .add(rec.metric("elapsed_ms"), 1)
          .add(static_cast<long long>(rec.faults.total_injected()))
          .add(static_cast<long long>(rec.metric("abft_detections")))
          .add(static_cast<long long>(rec.metric("abft_recovered")))
          .add(static_cast<long long>(rec.metric("abft_fp_screens")));
      if (!json_path.empty()) {
        char hex[24];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(points[i].fp));
        jrows.push(sweep::Json::object()
                       .set("app", "mlp")
                       .set("fault_rate", r.rate)
                       .set("protection", r.arm)
                       .set("fingerprint", hex)
                       .set("logit_mae", rec.metric("quality"))
                       .set("elapsed_ms", rec.metric("elapsed_ms"))
                       .set("injected", rec.faults.total_injected())
                       .set("abft_detections", rec.metric("abft_detections"))
                       .set("abft_recovered", rec.metric("abft_recovered"))
                       .set("abft_fp_screens", rec.metric("abft_fp_screens"))
                       .set("cache_hit", grid.cache_hit[i] != 0)
                       .set("status", sweep::to_string(grid.status[i])));
      }
    }
    std::printf("\n== Protection comparison: MLP logits under faults "
                "(none / per-op guard / checksum ABFT) ==\n");
    std::printf("%s", at.str().c_str());
    std::printf(
        "(logit MAE is against the fault-free imprecise run: 0 means the "
        "scheme removed every fault effect; the checksum layer pays "
        "O(M*N + M*K + K*N) per GEMM where the per-op guard doubles every "
        "multiply)\n");
  }
  return run.finish(grid.health, json_path, std::move(jrows),
                    sweep::Json::object().set(
                        "size", static_cast<std::uint64_t>(size)));
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

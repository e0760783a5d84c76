// MLP inference accuracy vs power across imprecise-GEMM operating points:
// the synthetic-MNIST two-layer classifier (src/apps/mlp.h) evaluated under
// a grid of (multiplier datapath x accumulator policy) configurations
// through the memoizing sweep engine. Each point's counters feed the
// GPUWattch-style model, so the table reads as the paper's Fig. 12-style
// trade: how much system power the matrix unit can shed before the
// classifier starts dropping samples.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/mlp.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/sweep_flags.h"
#include "common/table.h"
#include "sweep/fingerprint.h"
#include "sweep/bench_run.h"
#include "sweep/sweep.h"

using namespace ihw;

namespace {

struct Point {
  const char* label;
  IhwConfig cfg;                   // multiplier/adder datapaths
  gemm::GemmConfig gcfg;           // matrix-unit accumulator policy
};

sweep::Workload make_workload(const apps::MlpParams& p) {
  sweep::Workload w{"mlp",
                    {{"samples", double(p.samples)},
                     {"dim", double(p.dim)},
                     {"hidden", double(p.hidden)},
                     {"classes", double(p.classes)},
                     {"accum", double(static_cast<int>(p.gemm.accum))}},
                    p.seed};
  switch (p.gemm.accum) {
    case gemm::AccumMode::kFp32: break;
    case gemm::AccumMode::kFp32Trunc:
      w.params.emplace_back("accum_trunc", double(p.gemm.accum_trunc));
      break;
    case gemm::AccumMode::kIfpAdd:
      w.params.emplace_back("accum_th", double(p.gemm.accum_th));
      break;
    case gemm::AccumMode::kWideFp64:
      w.params.emplace_back("accum_block", double(p.gemm.accum_block));
      break;
  }
  // Appended only when on, so every pre-existing point keeps the fingerprint
  // (and any cached record) it had before the ABFT layer existed.
  if (p.gemm.abft != gemm::AbftMode::kOff)
    w.params.emplace_back("abft", double(static_cast<int>(p.gemm.abft)));
  return w;
}

gemm::GemmConfig acc(gemm::AccumMode m, int knob) {
  gemm::GemmConfig g;
  g.accum = m;
  if (m == gemm::AccumMode::kFp32Trunc) g.accum_trunc = knob;
  if (m == gemm::AccumMode::kIfpAdd) g.accum_th = knob;
  if (m == gemm::AccumMode::kWideFp64) g.accum_block = knob;
  return g;
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  sweep::install_drain_handler();
  std::printf("[runtime] threads=%d\n",
              runtime::configure_threads_from_args(args));
  const auto flags = common::SweepFlags::from_args(args);
  sweep::BenchRun run("mlp_inference", flags);
  const sweep::FailPolicy policy = sweep::make_fail_policy(flags);
  const std::string json_path = args.get("json", "");

  apps::MlpParams base;
  base.samples = args.get_int("samples", 512);
  base.dim = args.get_int("dim", 64);
  base.hidden = args.get_int("hidden", 96);
  base.classes = args.get_int("classes", 10);
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));

  const Point grid[] = {
      {"precise / fp32", IhwConfig::precise(), acc(gemm::AccumMode::kFp32, 0)},
      {"ifp mul / fp32", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kFp32, 0)},
      {"ifp mul / wide64 blk32",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kWideFp64, 32)},
      {"ifp mul / trunc acc 6",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kFp32Trunc, 6)},
      {"ifp mul / trunc acc 12",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kFp32Trunc, 12)},
      {"ifp mul / ifp acc th8",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kIfpAdd, 8)},
      {"ifp mul / ifp acc th4",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kIfpAdd, 4)},
      {"ifp mul / ifp acc th2",
       IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
       acc(gemm::AccumMode::kIfpAdd, 2)},
      {"log mul tr8 / fp32", IhwConfig::mul_only(MulMode::MitchellLog, 8),
       acc(gemm::AccumMode::kFp32, 0)},
      {"trunc mul 12 / fp32", IhwConfig::mul_only(MulMode::BitTruncated, 12),
       acc(gemm::AccumMode::kFp32, 0)},
  };

  // --abft=detect|recover re-runs the whole operating-point grid with the
  // checksum layer on (DESIGN.md §15); the default keeps it off and the
  // output byte-identical to the pre-ABFT bench.
  const auto abft_mode = static_cast<gemm::AbftMode>(flags.abft);
  std::vector<sweep::GridPoint> points;
  for (const auto& pt : grid) {
    apps::MlpParams p = base;
    p.gemm = pt.gcfg;
    p.gemm.abft = abft_mode;
    const IhwConfig cfg = pt.cfg;
    points.push_back({make_workload(p).fingerprint(&cfg), [p, cfg] {
                        sweep::EvalRecord rec;
                        apps::MlpResult res;
                        rec.perf = apps::run_with_config(
                            cfg, [&] { res = apps::run_mlp(p); });
                        rec.set_metric("accuracy", res.accuracy);
                        rec.set_metric("checksum", res.logit_checksum);
                        if (p.gemm.abft != gemm::AbftMode::kOff) {
                          rec.set_metric("abft_checksums",
                                         double(res.abft.checksums));
                          rec.set_metric("abft_detections",
                                         double(res.abft.detections));
                          rec.set_metric("abft_recovered",
                                         double(res.abft.blocks_recovered));
                          rec.set_metric("abft_residual_max",
                                         res.abft.residual_max);
                        }
                        return rec;
                      }});
  }
  const auto out = sweep::run_grid(points, &run.cache(), policy);
  if (run.drained(out.health)) return sweep::kDrainExitCode;

  std::vector<std::string> headers = {"configuration", "accuracy", "acc drop",
                                      "sys saving"};
  if (flags.abft != 0) headers.push_back("abft");
  common::Table t(std::move(headers));
  sweep::Json rows = sweep::Json::array();
  double base_acc = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (out.status[i] == sweep::PointStatus::Failed) {
      std::fprintf(stderr, "[sweep] point %zu failed: %s\n", i,
                   out.error_message(i).c_str());
      return sweep::kPointFailureExitCode;
    }
    const auto& rec = out.records[i];
    const double accuracy = rec.metric("accuracy");
    if (i == 0) base_acc = accuracy;
    // The TH accumulator is the paper's imprecise adder: its power saving
    // belongs in the row's system estimate alongside the multiplier's.
    IhwConfig pcfg = grid[i].cfg;
    if (grid[i].gcfg.accum == gemm::AccumMode::kIfpAdd) {
      pcfg.add_enabled = true;
      pcfg.add_th = grid[i].gcfg.accum_th;
    }
    const auto rep = apps::analyze_gpu_run(rec.perf, pcfg);
    const double saving = rep.savings.system_power_impr;
    t.row()
        .add(grid[i].label)
        .add(accuracy * 100.0, 2)
        .add((base_acc - accuracy) * 100.0, 2)
        .add(common::pct(saving));
    if (flags.abft != 0) {
      char abuf[64];
      std::snprintf(abuf, sizeof abuf, "det=%lld rec=%lld",
                    static_cast<long long>(rec.metric("abft_detections")),
                    static_cast<long long>(rec.metric("abft_recovered")));
      t.add(abuf);
    }
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(points[i].fp));
    auto jrow = sweep::Json::object()
                    .set("configuration", grid[i].label)
                    .set("fingerprint", hex)
                    .set("accuracy", accuracy)
                    .set("checksum", rec.metric("checksum"))
                    .set("system_saving", saving)
                    .set("cache_hit", out.cache_hit[i] != 0)
                    .set("status", sweep::to_string(out.status[i]));
    if (flags.abft != 0) {
      jrow.set("abft_mode", gemm::to_string(abft_mode))
          .set("abft_checksums", rec.metric("abft_checksums"))
          .set("abft_detections", rec.metric("abft_detections"))
          .set("abft_recovered", rec.metric("abft_recovered"))
          .set("abft_residual_max", rec.metric("abft_residual_max"));
    }
    rows.push(std::move(jrow));
  }
  std::printf("== MLP inference: accuracy vs power across GEMM operating "
              "points ==\n");
  std::printf("%s", t.str().c_str());
  std::printf("(two dense layers on the imprecise tile-GEMM engine; the "
              "fp32/wide accumulators hold accuracy at full multiplier "
              "savings, the TH-threshold accumulator trades the last "
              "percents for adder power)\n");

  return run.finish(out.health, json_path, std::move(rows));
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

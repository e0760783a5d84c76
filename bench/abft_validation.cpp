// ABFT fault-injection validation harness (DESIGN.md §15): proves the
// checksum layer's safety contract over a grid of operating points --
//
//   1. Fault-free (part A): the 10-point mlp_inference operating grid runs
//      in detect mode with zero injected faults; the threshold calibration
//      must produce exactly 0 flags (no false positives), or turning ABFT on
//      would cost recovery recomputes on healthy hardware.
//   2. Injected (part B): multiplier datapaths x accumulator policies x
//      fault rates x seeds at --size^3. Every output element of the detect
//      run must be either within the calibrated quality bound of the
//      fault-free canonical result (2x min(row, col) threshold) or covered
//      by a flagged row/column -- an out-of-bound element with neither axis
//      flagged is a *silent wrong answer* and fails the harness. The recover
//      run must leave no element out of bound at all.
//   3. Non-finite (part C): stuck-at-1 exponent-bit faults drive fp32
//      accumulators to Inf/NaN; those must be immediate detections (the
//      nonfinite counter) and recovery must return a fully finite result.
//
// tools/check_bench_regression.py --abft gates the JSON this writes
// (BENCH_pr10.json in CI): detections >= 1, silent_wrong == 0, fault-free
// flags == 0, nonfinite detections >= 1.
//
//   --size=N      injected-grid GEMM extent, M = N = K (default 64)
//   --samples=N   fault-free MLP batch size (default 128)
//   --json=PATH   structured results document
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/mlp.h"
#include "apps/runner.h"
#include "common/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "fault/spec.h"
#include "gemm/abft.h"
#include "gemm/gemm.h"
#include "sweep/json.h"

using namespace ihw;

namespace {

std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

gemm::GemmConfig acc(gemm::AccumMode m, int knob) {
  gemm::GemmConfig g;
  g.accum = m;
  if (m == gemm::AccumMode::kFp32Trunc) g.accum_trunc = knob;
  if (m == gemm::AccumMode::kIfpAdd) g.accum_th = knob;
  if (m == gemm::AccumMode::kWideFp64) g.accum_block = knob;
  return g;
}

/// Row/column flags recomputed independently of abft::verify from the same
/// Thresholds -- the harness's own classification, so a bookkeeping bug in
/// verify() cannot silently agree with itself.
struct Flags {
  std::vector<char> row, col;
};

Flags classify(const float* C, int M, int N, const gemm::abft::Thresholds& th) {
  Flags f;
  f.row.assign(static_cast<std::size_t>(M), 0);
  f.col.assign(static_cast<std::size_t>(N), 0);
  std::vector<double> crow(static_cast<std::size_t>(M), 0.0);
  std::vector<double> ccol(static_cast<std::size_t>(N), 0.0);
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j) {
      const double v = static_cast<double>(C[static_cast<std::size_t>(i) * N + j]);
      crow[i] += v;
      ccol[j] += v;
    }
  for (int i = 0; i < M; ++i) {
    if (!std::isfinite(th.row_ref[i]) || !std::isfinite(th.row[i])) continue;
    if (!std::isfinite(crow[i]) ||
        std::fabs(crow[i] - th.row_ref[i]) > th.row[i])
      f.row[i] = 1;
  }
  for (int j = 0; j < N; ++j) {
    if (!std::isfinite(th.col_ref[j]) || !std::isfinite(th.col[j])) continue;
    if (!std::isfinite(ccol[j]) ||
        std::fabs(ccol[j] - th.col_ref[j]) > th.col[j])
      f.col[j] = 1;
  }
  return f;
}

/// The per-element quality bound: a deviation past 2x the smaller of the two
/// axis thresholds must raise that axis's residual past tau even after the
/// fault-free envelope (tau / kSafety) eats into it.
double elem_bound(const gemm::abft::Thresholds& th, int i, int j) {
  return 2.0 * std::min(th.row[i], th.col[j]);
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  const int size = static_cast<int>(args.get_int("size", 64));
  const int samples = static_cast<int>(args.get_int("samples", 128));
  const std::string json_path = args.get("json", "");
  bool passed = true;

  // --- part A: fault-free false-positive sweep (mlp_inference grid) -------
  struct MlpPoint {
    const char* label;
    IhwConfig cfg;
    gemm::GemmConfig gcfg;
  };
  const MlpPoint mlp_grid[] = {
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

  std::uint64_t ff_checksums = 0, ff_detections = 0;
  double ff_residual_max = 0.0;
  common::Table ta({"configuration", "checksums", "detections", "resid max"});
  for (const auto& pt : mlp_grid) {
    apps::MlpParams p;
    p.samples = samples;
    p.gemm = pt.gcfg;
    p.gemm.abft = gemm::AbftMode::kDetect;
    apps::MlpResult res;
    apps::run_with_config(pt.cfg, [&] { res = apps::run_mlp(p); });
    ff_checksums += res.abft.checksums;
    ff_detections += res.abft.detections;
    if (res.abft.residual_max > ff_residual_max)
      ff_residual_max = res.abft.residual_max;
    ta.row()
        .add(pt.label)
        .add(static_cast<long long>(res.abft.checksums))
        .add(static_cast<long long>(res.abft.detections))
        .add(res.abft.residual_max, 4);
  }
  std::printf("== ABFT part A: fault-free false-positive sweep (MLP grid, "
              "detect mode) ==\n%s", ta.str().c_str());
  if (ff_detections != 0) {
    std::fprintf(stderr, "[abft] FAIL: %llu false positives fault-free\n",
                 static_cast<unsigned long long>(ff_detections));
    passed = false;
  }

  // --- part B: injected-fault sweep ----------------------------------------
  struct MulPoint {
    const char* label;
    IhwConfig cfg;
  };
  // The precise row is the negative control: a precise-path class models a
  // unit at nominal voltage, so the injector never fires on it (injected
  // stays 0) and the thresholds must stay quiet.
  const MulPoint muls[] = {
      {"precise", IhwConfig::precise()},
      {"ifp", IhwConfig::mul_only(MulMode::ImpreciseSimple, 0)},
      {"acfp_log8", IhwConfig::mul_only(MulMode::MitchellLog, 8)},
      {"trunc12", IhwConfig::mul_only(MulMode::BitTruncated, 12)},
  };
  struct AccPoint {
    const char* label;
    gemm::GemmConfig gcfg;
  };
  const AccPoint accs[] = {
      {"fp32", acc(gemm::AccumMode::kFp32, 0)},
      {"trunc6", acc(gemm::AccumMode::kFp32Trunc, 6)},
      {"ifp_th8", acc(gemm::AccumMode::kIfpAdd, 8)},
      {"wide32", acc(gemm::AccumMode::kWideFp64, 32)},
  };
  const double rates[] = {1e-4, 1e-3};
  const std::uint64_t seeds[] = {0x5eed0001ull, 0x5eed0002ull};

  const int M = size, N = size, K = size;
  const auto A = inputs(static_cast<std::size_t>(M) * K, 21);
  const auto B = inputs(static_cast<std::size_t>(K) * N, 22);
  const std::size_t elems = static_cast<std::size_t>(M) * N;

  std::uint64_t inj_points = 0, inj_injected = 0, inj_detections = 0;
  std::uint64_t inj_recovered = 0, inj_fp_screens = 0;
  std::uint64_t silent_wrong = 0, post_recovery_bad = 0;
  std::uint64_t below_bound = 0, covered = 0;

  common::Table tb({"mul", "accum", "rate", "seed", "injected", "det", "rec",
                    "screens", "silent", "post-bad"});
  for (const auto& mp : muls) {
    for (const auto& ap : accs) {
      for (double rate : rates) {
        for (std::uint64_t seed : seeds) {
          ++inj_points;
          // Faults strike the voltage-overscaled multiply array only: the
          // policy accumulator sits outside it (gemm::detail docs), so the
          // Mul class is the whole faultable surface of the matrix unit.
          IhwConfig faulted = mp.cfg;
          faulted.faults.seed = seed;
          faulted.faults[fault::UnitClass::Mul].rate = rate;

          gemm::GemmConfig g = ap.gcfg;
          std::vector<float> ref(elems), det(elems), rec(elems);
          apps::run_with_config(mp.cfg, [&] {
            gemm::run(A.data(), B.data(), ref.data(), M, N, K, g);
          });
          const auto th =
              gemm::abft::thresholds(A.data(), B.data(), M, N, K, g, mp.cfg);

          g.abft = gemm::AbftMode::kDetect;
          gemm::abft::AbftCounters dc;
          std::uint64_t injected = 0;
          {
            gemm::abft::ScopedAbftCounters scope(dc);
            const auto run = apps::run_guarded(faulted, [&] {
              gemm::run(A.data(), B.data(), det.data(), M, N, K, g);
            });
            injected = run.faults.total_injected();
          }

          g.abft = gemm::AbftMode::kRecover;
          gemm::abft::AbftCounters rc;
          {
            gemm::abft::ScopedAbftCounters scope(rc);
            apps::run_guarded(faulted, [&] {
              gemm::run(A.data(), B.data(), rec.data(), M, N, K, g);
            });
          }

          // Harness-side classification of the detect run: every element is
          // below bound, covered by a flagged axis, or a silent wrong answer.
          const Flags fl = classify(det.data(), M, N, th);
          std::uint64_t silent = 0, bad = 0;
          for (int i = 0; i < M; ++i) {
            for (int j = 0; j < N; ++j) {
              const std::size_t at = static_cast<std::size_t>(i) * N + j;
              const double dd = static_cast<double>(det[at]) -
                                static_cast<double>(ref[at]);
              const bool out =
                  !std::isfinite(static_cast<double>(det[at])) ||
                  std::fabs(dd) > elem_bound(th, i, j);
              if (!out)
                ++below_bound;
              else if (fl.row[i] || fl.col[j])
                ++covered;
              else
                ++silent;
              const double rd = static_cast<double>(rec[at]) -
                                static_cast<double>(ref[at]);
              if (!std::isfinite(static_cast<double>(rec[at])) ||
                  std::fabs(rd) > elem_bound(th, i, j))
                ++bad;
            }
          }
          silent_wrong += silent;
          post_recovery_bad += bad;
          inj_injected += injected;
          inj_detections += dc.detections + rc.detections;
          inj_recovered += rc.blocks_recovered;
          inj_fp_screens += rc.fp_screens;

          char rbuf[16];
          std::snprintf(rbuf, sizeof rbuf, "%.0e", rate);
          tb.row()
              .add(mp.label)
              .add(ap.label)
              .add(rbuf)
              .add(static_cast<long long>(seed & 0xf))
              .add(static_cast<long long>(injected))
              .add(static_cast<long long>(dc.detections))
              .add(static_cast<long long>(rc.blocks_recovered))
              .add(static_cast<long long>(rc.fp_screens))
              .add(static_cast<long long>(silent))
              .add(static_cast<long long>(bad));
        }
      }
    }
  }
  std::printf("\n== ABFT part B: injected faults, %dx%dx%d (detect vs "
              "recover) ==\n%s", M, N, K, tb.str().c_str());
  std::printf("(silent = out-of-bound elements with neither axis flagged; "
              "post-bad = out-of-bound elements surviving recovery; both "
              "must be 0 -- a fault either gets caught or provably does not "
              "matter)\n");
  if (silent_wrong != 0 || post_recovery_bad != 0) {
    std::fprintf(stderr, "[abft] FAIL: silent_wrong=%llu post_recovery_bad=%llu\n",
                 static_cast<unsigned long long>(silent_wrong),
                 static_cast<unsigned long long>(post_recovery_bad));
    passed = false;
  }
  if (inj_detections == 0) {
    std::fprintf(stderr, "[abft] FAIL: injection sweep produced 0 detections\n");
    passed = false;
  }

  // --- part C: non-finite fault semantics ----------------------------------
  // Stuck-at-1 faults on the product's top exponent bits blow elements up to
  // ~2^126; a few of those in one fp32 accumulation chain overflow to Inf.
  // Non-finite checksums must be immediate detections, and recovery (whose
  // forced guard screens the recompute's own faults against the precise
  // product) must return an entirely finite, in-bound result.
  std::uint64_t nf_detections = 0, nf_nonfinite = 0, nf_out = 0;
  std::uint64_t nf_post_bad = 0;
  {
    // Must target an *imprecise* datapath: precise-path classes sit at
    // nominal voltage and never fault (part B's negative-control row).
    const IhwConfig clean = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
    IhwConfig faulted = clean;
    auto& spec = faulted.faults[fault::UnitClass::Mul];
    spec.rate = 0.05;
    spec.model = fault::FaultModel::StuckAt1;
    spec.bit_lo = 28;
    spec.bit_hi = 30;

    gemm::GemmConfig g;
    std::vector<float> ref(elems), rec(elems);
    apps::run_with_config(clean, [&] {
      gemm::run(A.data(), B.data(), ref.data(), M, N, K, g);
    });
    const auto th =
        gemm::abft::thresholds(A.data(), B.data(), M, N, K, g, clean);
    g.abft = gemm::AbftMode::kRecover;
    gemm::abft::AbftCounters rc;
    {
      gemm::abft::ScopedAbftCounters scope(rc);
      apps::run_guarded(faulted, [&] {
        gemm::run(A.data(), B.data(), rec.data(), M, N, K, g);
      });
    }
    nf_detections = rc.detections;
    nf_nonfinite = rc.nonfinite;
    for (int i = 0; i < M; ++i)
      for (int j = 0; j < N; ++j) {
        const std::size_t at = static_cast<std::size_t>(i) * N + j;
        if (!std::isfinite(static_cast<double>(rec[at]))) {
          ++nf_out;
          continue;
        }
        const double rd = static_cast<double>(rec[at]) -
                          static_cast<double>(ref[at]);
        if (std::fabs(rd) > elem_bound(th, i, j)) ++nf_post_bad;
      }
    std::printf("\n== ABFT part C: stuck-at-1 exponent faults (rate 5e-2, "
                "bits 28-30) ==\n");
    std::printf("detections=%llu nonfinite=%llu recovered=%llu "
                "nonfinite_out=%llu out_of_bound_out=%llu\n",
                static_cast<unsigned long long>(rc.detections),
                static_cast<unsigned long long>(rc.nonfinite),
                static_cast<unsigned long long>(rc.blocks_recovered),
                static_cast<unsigned long long>(nf_out),
                static_cast<unsigned long long>(nf_post_bad));
    if (nf_nonfinite == 0) {
      std::fprintf(stderr,
                   "[abft] FAIL: exponent faults raised no nonfinite flags\n");
      passed = false;
    }
    if (nf_out != 0 || nf_post_bad != 0) {
      std::fprintf(stderr,
                   "[abft] FAIL: recovery left %llu non-finite / %llu "
                   "out-of-bound elements\n",
                   static_cast<unsigned long long>(nf_out),
                   static_cast<unsigned long long>(nf_post_bad));
      passed = false;
    }
  }

  std::printf("\n[abft] %s: fault_free_flags=%llu detections=%llu "
              "recovered=%llu silent_wrong=%llu post_recovery_bad=%llu "
              "nonfinite=%llu\n",
              passed ? "PASS" : "FAIL",
              static_cast<unsigned long long>(ff_detections),
              static_cast<unsigned long long>(inj_detections),
              static_cast<unsigned long long>(inj_recovered),
              static_cast<unsigned long long>(silent_wrong),
              static_cast<unsigned long long>(post_recovery_bad),
              static_cast<unsigned long long>(nf_nonfinite));

  if (!json_path.empty()) {
    sweep::Json doc = sweep::Json::object();
    doc.set("bench", "abft_validation")
        .set("size", static_cast<std::uint64_t>(size))
        .set("samples", static_cast<std::uint64_t>(samples))
        .set("fault_free",
             sweep::Json::object()
                 .set("points",
                      static_cast<std::uint64_t>(std::size(mlp_grid)))
                 .set("checksums", ff_checksums)
                 .set("detections", ff_detections)
                 .set("residual_max", ff_residual_max))
        .set("injected", sweep::Json::object()
                             .set("points", inj_points)
                             .set("injected", inj_injected)
                             .set("detections", inj_detections)
                             .set("recovered", inj_recovered)
                             .set("fp_screens", inj_fp_screens)
                             .set("below_bound", below_bound)
                             .set("covered", covered)
                             .set("silent_wrong", silent_wrong)
                             .set("post_recovery_bad", post_recovery_bad))
        .set("nonfinite", sweep::Json::object()
                              .set("detections", nf_detections)
                              .set("nonfinite_detections", nf_nonfinite)
                              .set("nonfinite_out", nf_out)
                              .set("out_of_bound_out", nf_post_bad))
        .set("passed", passed);
    if (!doc.write_file(json_path))
      std::fprintf(stderr, "[abft] failed to write %s\n", json_path.c_str());
  }
  return passed ? 0 : 1;
} catch (const ihw::common::ArgError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

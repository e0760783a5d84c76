// Layer tracer of the repo benchmark (perfbench/run.py --trace 1).
//
// Calls each src/ layer's public entry points with the parameters and seeds
// the benchmark workloads use, and records one span around each call: name,
// start, end, parent span and run id, plus the counts measured at the same
// boundary (ops, MACs, QMC samples, cache hits/misses/stores, bytes
// written). Spans stay in memory and are written as one JSON document at
// exit; run.py turns them into the per-layer metrics. With --spans=0 the
// same calls run without recording, which gives the tracing overhead.
//
//   perfbench_trace --seed=S --threads=P --work=DIR --out=trace.json
//   perfbench_trace --seed=S --threads=P --work=DIR --spans=0
//   perfbench_trace --host        # ISA, compiler and LLC size, as JSON
//
// Seed 0 selects the seeds the figure binaries use; any other seed feeds
// every input generator. The program also checks the contracts it can see
// (batched == per-element app kernels, GEMM thread-count identity, warm and
// resumed sweep records == cold records) and exits 1 if one fails.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/art.h"
#include "apps/cp.h"
#include "apps/gromacs.h"
#include "apps/hotspot.h"
#include "apps/mlp.h"
#include "apps/ray.h"
#include "apps/runner.h"
#include "apps/sphinx.h"
#include "apps/srad.h"
#include "common/args.h"
#include "error/characterize.h"
#include "fault/guarded_dispatch.h"
#include "gemm/gemm.h"
#include "ihw/batch.h"
#include "ihw/simd/isa.h"
#include "qmc/sobol.h"
#include "quality/grid_metrics.h"
#include "quality/ssim.h"
#include "runtime/parallel.h"
#include "sweep/sweep.h"

using namespace ihw;
using namespace ihw::apps;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> counts;
};

// In-memory span recorder. Spans open and close on the main thread only:
// every traced call runs its own parallelism inside the call, and the sweep
// grids below run with threads=1, which evaluates points inline.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(std::string name) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  void count(int id, const char* key, double value) {
    if (id >= 0) spans_[id].counts.emplace_back(key, value);
  }
  void check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "perfbench_trace: check failed: %s\n", name.c_str());
  }
  bool all_ok() const {
    for (const auto& c : checks_)
      if (!c.second) return false;
    return true;
  }
  void write(std::FILE* f, const std::string& run_id, double sink) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::pair<std::string, bool>> checks_;
};

void Tracer::write(std::FILE* f, const std::string& run_id, double sink) const {
  std::fprintf(f, "{\"run_id\": \"%s\", \"sink\": %.17g,\n \"spans\": [", run_id.c_str(),
               sink);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"run\": \"%s\", \"counts\": {",
                 i ? "," : "", i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, run_id.c_str());
    for (std::size_t k = 0; k < s.counts.size(); ++k)
      std::fprintf(f, "%s\"%s\": %.17g", k ? ", " : "", s.counts[k].first.c_str(),
                   s.counts[k].second);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "],\n \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i)
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"ok\": %s}", i ? "," : "",
                 checks_[i].first.c_str(), checks_[i].second ? "true" : "false");
  std::fprintf(f, "]}\n");
}

// RAII span around one layer call.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void count(const char* key, double value) { t_.count(id_, key, value); }

 private:
  Tracer& t_;
  int id_;
};

std::uint64_t pick(std::uint64_t seed, std::uint64_t figure_seed) {
  return seed == 0 ? figure_seed : seed;
}

double total_ops(const gpu::PerfCounters& c) {
  double n = 0;
  for (auto v : c.counts) n += static_cast<double>(v);
  return n;
}

bool same_bits(const common::GridF& a, const common::GridF& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> uniform(std::size_t n, float lo, float hi, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

// wchar of /proc/self/io: bytes this process passed to write(2) and friends.
double bytes_written() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0;
  while (io >> key >> value)
    if (key == "wchar:") return value;
  return 0;
}

// --- apps, gpu, quality, power: the paper_apps figure kernels --------------

// Per-element SimFloat kernel vs its batched port under all_imprecise(),
// checked bit-identical (outputs and PerfCounters).
template <typename Sim, typename Batched>
void sim_vs_batched(Tracer& tr, const std::string& app, Sim sim, Batched batched,
                    common::GridF* out, gpu::PerfCounters* perf) {
  const IhwConfig cfg = IhwConfig::all_imprecise();
  common::GridF fast;
  gpu::PerfCounters fast_perf;
  {
    Scope s(tr, "apps." + app + ".sim");
    *perf = run_with_config(cfg, [&] { *out = sim(); });
    s.count("ops", total_ops(*perf));
  }
  {
    Scope s(tr, "apps." + app + ".batched");
    fast_perf = run_with_config(cfg, [&] { fast = batched(); });
    s.count("ops", total_ops(fast_perf));
  }
  tr.check("apps." + app + ".batched_identical",
           same_bits(*out, fast) && perf->counts == fast_perf.counts);
}

double trace_apps(Tracer& tr, std::uint64_t seed) {
  double sink = 0;
  const IhwConfig imp = IhwConfig::all_imprecise();

  HotspotParams hp;  // fig15_hotspot: 512^2, 60 iterations, seed 7
  HotspotInput hin;
  {
    Scope s(tr, "apps.hotspot.input");
    hin = make_hotspot_input(hp, pick(seed, 7));
  }
  common::GridF hot;
  gpu::PerfCounters hot_perf;
  sim_vs_batched(
      tr, "hotspot", [&] { return run_hotspot<gpu::SimFloat>(hp, hin); },
      [&] { return run_hotspot_batched(hp, hin); }, &hot, &hot_perf);
  {
    Scope s(tr, "quality.mae");
    sink += quality::mae(hin.temp, hot);
  }
  {
    Scope s(tr, "quality.mse");
    sink += quality::mse(hin.temp, hot);
  }
  {
    Scope s(tr, "quality.wed");
    sink += quality::wed(hin.temp, hot);
  }
  {
    Scope s(tr, "power.analyze_gpu_run");
    gpu::GpuPowerParams params;
    params.dram_fraction = 0.15;
    sink += analyze_gpu_run(hot_perf, imp, params).savings.system_power_impr;
  }

  SradParams sp;  // fig16_srad: 256^2, 100 iterations, seed 11
  SradInput sin;
  {
    Scope s(tr, "apps.srad.input");
    sin = make_srad_input(sp, pick(seed, 11));
  }
  common::GridF srad;
  gpu::PerfCounters srad_perf;
  sim_vs_batched(
      tr, "srad", [&] { return run_srad<gpu::SimFloat>(sp, sin.image); },
      [&] { return run_srad_batched(sp, sin.image); }, &srad, &srad_perf);
  {
    Scope s(tr, "quality.pratt_fom");
    sink += srad_pratt_fom(srad, sin.ideal_edges);
  }
  {
    Scope s(tr, "quality.ssim");
    sink += quality::ssim(sin.image, srad);
  }

  CpParams cp;  // fig20_cp: 128^2 lattice, 192 atoms, seed 3
  const auto atoms = make_cp_atoms(cp, pick(seed, 3));
  common::GridF pot;
  gpu::PerfCounters cp_perf;
  sim_vs_batched(
      tr, "cp", [&] { return run_cp<gpu::SimFloat>(cp, atoms); },
      [&] { return run_cp_batched(cp, atoms); }, &pot, &cp_perf);

  {
    Scope s(tr, "apps.ray.sim");  // fig17_18_ray, Fig. 18(b) configuration
    RayParams rp;
    common::RgbImage img;
    const auto perf = run_with_config(IhwConfig::ray_with_full_path_mul(0),
                                      [&] { img = render_ray<gpu::SimFloat>(rp); });
    s.count("ops", total_ops(perf));
  }
  {
    ArtParams ap;  // fig21_art_gromacs, seed 5
    const auto in = make_art_input(ap, pick(seed, 5));
    Scope s(tr, "apps.art.sim");
    ArtResult r;
    const auto perf = run_with_config(IhwConfig::mul_only(MulMode::MitchellFull, 0),
                                      [&] { r = run_art<gpu::SimDouble>(ap, in); });
    sink += r.vigilance;
    s.count("ops", total_ops(perf));
  }
  {
    MdParams mp;  // fig21_art_gromacs, seed 9
    const auto st = make_md_state(mp, pick(seed, 9));
    Scope s(tr, "apps.gromacs.sim");
    MdResult r;
    const auto perf = run_with_config(IhwConfig::mul_only(MulMode::MitchellFull, 0),
                                      [&] { r = run_md<gpu::SimDouble>(mp, st); });
    sink += r.avg_potential;
    s.count("ops", total_ops(perf));
  }
  {
    SphinxParams xp;  // table7_sphinx, seed 42
    const auto corpus = make_sphinx_corpus(xp, pick(seed, 42));
    Scope s(tr, "apps.sphinx.sim");
    SphinxResult r;
    const auto perf = run_with_config(IhwConfig::mul_only(MulMode::MitchellFull, 46),
                                      [&] { r = run_sphinx<gpu::SimDouble>(xp, corpus); });
    sink += r.correct;
    s.count("ops", total_ops(perf));
  }
  return sink;
}

// --- ihw, fault, error, qmc: the units_gemm unit layers --------------------

double trace_units(Tracer& tr, std::uint64_t seed) {
  constexpr std::size_t kN = 16384;  // micro_units span length
  constexpr int kReps = 256;
  const auto a = uniform(kN, -8.0f, 8.0f, pick(seed, 1));
  const auto b = uniform(kN, -8.0f, 8.0f, pick(seed, 1) + 1);
  const auto c = uniform(kN, -8.0f, 8.0f, pick(seed, 1) + 2);
  const auto x = uniform(kN, 0.25f, 4.0f, pick(seed, 1) + 3);
  std::vector<float> out(kN);
  double sink = 0;

  auto span_kernel = [&](const char* name, auto&& call) {
    Scope s(tr, std::string("ihw.span.") + name);
    for (int r = 0; r < kReps; ++r) call();
    s.count("elements", double(kReps) * kN);
    sink += out[kN / 2];
  };
  span_kernel("ifp_mul", [&] { batch::ifp_mul_n(a.data(), b.data(), out.data(), kN); });
  span_kernel("acfp_log_mul", [&] {
    batch::acfp_mul_n(a.data(), b.data(), out.data(), kN, AcfpPath::Log, 0);
  });
  span_kernel("trunc_mul",
              [&] { batch::trunc_mul_n(a.data(), b.data(), out.data(), kN, 12); });
  span_kernel("ifp_add", [&] {
    batch::ifp_add_n(a.data(), b.data(), out.data(), kN, kDefaultAddTh);
  });
  span_kernel("rcp", [&] { batch::ircp_n(x.data(), out.data(), kN); });
  span_kernel("ifp_mac",
              [&] { batch::ifp_mac_n(a.data(), b.data(), c.data(), out.data(), kN, 0); });

  // Screened (guarded) span mul vs the same mul unscreened.
  IhwConfig mul = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);
  IhwConfig guarded = mul;
  guarded.guard.enabled = true;
  auto fault_mul = [&](const char* name, const IhwConfig& cfg, int reps) {
    fault::GuardedDispatch d(cfg);
    d.begin_epoch(0);
    Scope s(tr, name);
    for (int r = 0; r < reps; ++r) d.mul_n(a.data(), b.data(), out.data(), kN);
    s.count("elements", double(reps) * kN);
    sink += out[0];
  };
  fault_mul("fault.mul_unguarded", mul, kReps);
  fault_mul("fault.mul_guarded", guarded, 16);

  using error::UnitKind;
  auto characterize = [&](const char* name, bool is64,
                          const std::vector<error::CharRequest>& reqs,
                          std::uint64_t samples) {
    Scope s(tr, name);
    const auto res = is64 ? error::characterize64_many(reqs, samples)
                          : error::characterize32_many(reqs, samples);
    for (const auto& r : res) sink += r.stats.max_rel();
    s.count("samples", double(samples) * double(reqs.size()));
  };
  // fig08_error_char's units and fig09_acfpmul_error_char's configurations
  // at their default 4M-sample budget.
  characterize("error.char32.fig08", false,
               {{UnitKind::FpAdd, 0}, {UnitKind::FpMul, 0}, {UnitKind::FpDiv, 0},
                {UnitKind::Rcp, 0}, {UnitKind::Rsqrt, 0}, {UnitKind::Sqrt, 0},
                {UnitKind::Log2, 0}, {UnitKind::Exp2, 0}, {UnitKind::Fma, 0}},
               4'000'000);
  characterize("error.char32.fig09", false,
               {{UnitKind::AcfpFull, 0}, {UnitKind::AcfpFull, 17},
                {UnitKind::AcfpFull, 19}, {UnitKind::AcfpLog, 0},
                {UnitKind::AcfpLog, 17}, {UnitKind::AcfpLog, 18},
                {UnitKind::AcfpLog, 19}, {UnitKind::BitTrunc, 19},
                {UnitKind::BitTrunc, 21}},
               4'000'000);
  // fig14_power_quality's 64-bit multiplier grid at its default budget.
  std::vector<error::CharRequest> grid64;
  for (auto kind : {UnitKind::AcfpFull, UnitKind::AcfpLog, UnitKind::BitTrunc})
    for (int t = 0; t <= 49; t += 7) grid64.push_back({kind, t});
  characterize("error.char64.fig14", true, grid64, 400'000);

  {
    constexpr int kPoints = 1 << 22;
    qmc::Sobol q(2);
    double p[2];
    Scope s(tr, "qmc.sobol");
    for (int i = 0; i < kPoints; ++i) {
      q.next(p);
      sink += p[0];
    }
    s.count("points", kPoints);
  }
  return sink;
}

// --- gemm: the tile-GEMM engine, ABFT and the MLP workload -----------------

double trace_gemm(Tracer& tr, std::uint64_t seed, int threads) {
  constexpr int kDim = 128;
  constexpr int kReps = 64;
  const auto A = uniform(std::size_t(kDim) * kDim, -1.0f, 1.0f, pick(seed, 1) + 10);
  const auto B = uniform(std::size_t(kDim) * kDim, -1.0f, 1.0f, pick(seed, 1) + 11);
  const IhwConfig ifp = IhwConfig::mul_only(MulMode::ImpreciseSimple, 0);

  auto run = [&](const char* name, const IhwConfig& cfg, int nthreads,
                 gemm::AbftMode abft) {
    gemm::GemmConfig g;
    g.threads = nthreads;
    g.abft = abft;
    std::vector<float> C(std::size_t(kDim) * kDim);
    gpu::FpContext ctx(cfg);
    gpu::ScopedContext scope(ctx);
    Scope s(tr, name);
    for (int r = 0; r < kReps; ++r) gemm::run(A.data(), B.data(), C.data(), kDim, kDim, kDim, g);
    s.count("macs", double(kReps) * kDim * kDim * kDim);
    return C;
  };
  run("gemm.precise", IhwConfig::precise(), 1, gemm::AbftMode::kOff);
  const auto c1 = run("gemm.ifp", ifp, 1, gemm::AbftMode::kOff);
  const auto cp = run("gemm.ifp_par", ifp, threads, gemm::AbftMode::kOff);
  tr.check("gemm.threads_identical",
           std::memcmp(c1.data(), cp.data(), c1.size() * sizeof(float)) == 0);
  run("gemm.ifp_abft_detect", ifp, 1, gemm::AbftMode::kDetect);
  run("gemm.ifp_abft_recover", ifp, 1, gemm::AbftMode::kRecover);

  MlpParams mp;  // mlp_inference defaults, "ifp mul / fp32" grid point
  mp.samples = 512;
  mp.seed = pick(seed, 1234);
  Scope s(tr, "apps.mlp.run");
  MlpResult r;
  const auto perf = run_with_config(ifp, [&] { r = run_mlp(mp); });
  s.count("ops", total_ops(perf));
  return r.logit_checksum;
}

// --- sweep: cold fill, warm rerun and journal resume on one disk cache -----

double trace_sweep(Tracer& tr, std::uint64_t seed, const std::string& work) {
  // The sweep_cold point mix in kind and cost: 54 cheap quasi-MC
  // characterizations (fig14/fig08), 10 small MLP evaluations
  // (mlp_inference --samples=64) and 24 small HotSpot runs
  // (ablation_fault_guard --size=48): 88 points.
  HotspotParams hp;
  hp.rows = hp.cols = 48;
  const auto hin = make_hotspot_input(hp, pick(seed, 7));
  std::vector<sweep::GridPoint> points;
  auto fingerprint = [&](const char* kind, int i) {
    return sweep::Workload{"perfbench", {{kind, double(i)}}, pick(seed, 1)}.fingerprint();
  };
  auto eval_span = [&tr](auto&& body) {
    return [&tr, body] {
      Scope s(tr, "sweep.eval");
      return body();
    };
  };
  int i = 0;
  for (auto kind : {error::UnitKind::AcfpFull, error::UnitKind::AcfpLog,
                    error::UnitKind::BitTrunc})
    for (int t = 0; t < 18; ++t, ++i)
      points.push_back({fingerprint("char", i), eval_span([kind, t] {
                          sweep::EvalRecord rec;
                          rec.has_char = true;
                          rec.chr = error::characterize32(kind, t, 20000);
                          return rec;
                        })});
  for (int t = 0; t < 10; ++t)
    points.push_back({fingerprint("mlp", t), eval_span([t, seed] {
                        MlpParams mp;
                        mp.samples = 64;
                        mp.seed = pick(seed, 1234);
                        mp.gemm.accum = gemm::AccumMode::kFp32Trunc;
                        mp.gemm.accum_trunc = t;
                        sweep::EvalRecord rec;
                        MlpResult r;
                        rec.perf = run_with_config(
                            IhwConfig::mul_only(MulMode::ImpreciseSimple, 0),
                            [&] { r = run_mlp(mp); });
                        rec.set_metric("accuracy", r.accuracy);
                        return rec;
                      })});
  for (int t = 0; t < 24; ++t)
    points.push_back({fingerprint("hotspot", t), eval_span([t, &hp, &hin] {
                        sweep::EvalRecord rec;
                        common::GridF out;
                        rec.perf = run_with_config(
                            IhwConfig::mul_only(MulMode::BitTruncated, t),
                            [&] { out = run_hotspot<gpu::SimFloat>(hp, hin); });
                        rec.set_metric("mae", quality::mae(hin.temp, out));
                        return rec;
                      })});
  const double n = double(points.size());

  const std::string dir = work + "/sweep-cache";
  std::filesystem::remove_all(dir);
  auto serialized = [&](const sweep::GridOutcome& g) {
    std::string s;
    for (std::size_t k = 0; k < points.size(); ++k)
      s += sweep::EvalCache::serialize(points[k].fp, g.records[k]);
    return s;
  };

  sweep::EvalCache cold(dir);
  cold.attach_journal("perfbench", /*resume=*/false);
  sweep::GridOutcome first;
  {
    const double w0 = bytes_written();
    Scope s(tr, "sweep.cold");
    first = sweep::run_grid(points, &cold, 1);
    s.count("points", n);
    s.count("misses", double(cold.misses()));
    s.count("stores", double(cold.stores()));
    s.count("bytes_written", bytes_written() - w0);
  }

  sweep::EvalCache warm(dir);  // a new process's view: memory empty, disk full
  sweep::GridOutcome second;
  {
    Scope s(tr, "sweep.warm");
    second = sweep::run_grid(points, &warm, 1);
    s.count("points", n);
    s.count("hits", double(warm.hits()));
    s.count("misses", double(warm.misses()));
  }

  sweep::EvalCache resumed(dir);
  {
    Scope s(tr, "sweep.replay");
    resumed.attach_journal("perfbench", /*resume=*/true);
    s.count("replayed", double(resumed.journal_replayed()));
  }
  sweep::GridOutcome third;
  {
    Scope s(tr, "sweep.resume");
    third = sweep::run_grid(points, &resumed, 1);
    s.count("points", n);
    s.count("hits", double(resumed.hits()));
    s.count("misses", double(resumed.misses()));
  }
  const std::string ref = serialized(first);
  tr.check("sweep.warm_identical", serialized(second) == ref);
  tr.check("sweep.resume_identical", serialized(third) == ref);
  tr.check("sweep.cold_stored_all", cold.stores() == points.size());
  std::filesystem::remove_all(dir);
  return double(ref.size());
}

int print_host() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("{\"isa_active\": \"%s\", \"isa_best\": \"%s\", \"compiler\": \"%s\", "
              "\"llc_bytes\": %ld}\n",
              simd::isa_name(simd::isa_active()), simd::isa_name(simd::isa_best_supported()),
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
              llc > 0 ? llc : 0L);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  common::Args args(argc, argv);
  if (args.has("host")) return print_host();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  const int threads = args.threads();
  runtime::set_default_threads(threads);
  const std::string out_path = args.get("out", "");
  const std::string work = args.get("work", ".");

  Tracer tr(args.get_bool("spans", true));
  double sink = 0;
  {
    Scope root(tr, "trace");
    sink += trace_apps(tr, seed);
    sink += trace_units(tr, seed);
    sink += trace_gemm(tr, seed, threads);
    sink += trace_sweep(tr, seed, work);
  }
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_trace: cannot write %s\n", out_path.c_str());
      return 2;
    }
    tr.write(f, "seed" + std::to_string(seed) + "-pid" + std::to_string(getpid()), sink);
    if (std::fclose(f) != 0) return 2;
  }
  return tr.all_ok() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
  return 2;
}

// ABFT verification and recovery for the tile-GEMM engine (DESIGN.md §15).
// Everything here runs serially on the caller's thread after the main MAC
// pass: the checksum math is plain fp64 host arithmetic (the dedicated
// checksum unit sits at nominal voltage, outside the power model), and the
// recovery recompute walks the canonical guarded-dispatch chain on fresh
// epoch labels so its fault draws never replay the main pass's.
#include "gemm/abft.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "error/characterize.h"
#include "gpu/context.h"

namespace ihw::gemm::abft {
namespace {

thread_local AbftCounters* tls_sink = nullptr;

int clamp_int(int v, int lo, int hi) { return std::min(std::max(v, lo), hi); }

/// Maps the multiplier datapath to its characterizable unit kind. Returns
/// false for the precise multiplier (bounded by the rounding ulp directly).
bool map_mul(const IhwConfig& icfg, error::UnitKind* kind, int* param) {
  switch (icfg.mul_mode) {
    case MulMode::Precise: return false;
    case MulMode::ImpreciseSimple:
      *kind = error::UnitKind::FpMul;
      *param = 0;
      return true;
    case MulMode::MitchellLog:
      *kind = error::UnitKind::AcfpLog;
      *param = icfg.mul_trunc;
      return true;
    case MulMode::MitchellFull:
      *kind = error::UnitKind::AcfpFull;
      *param = icfg.mul_trunc;
      return true;
    case MulMode::BitTruncated:
      *kind = error::UnitKind::BitTrunc;
      *param = icfg.mul_trunc;
      return true;
  }
  return false;
}

}  // namespace

bool AbftCounters::any() const {
  return checksums || detections || nonfinite || blocks_recovered ||
         fp_screens || residual_max > 0.0;
}

void AbftCounters::reset() { *this = AbftCounters{}; }

AbftCounters& AbftCounters::operator+=(const AbftCounters& o) {
  checksums += o.checksums;
  detections += o.detections;
  nonfinite += o.nonfinite;
  blocks_recovered += o.blocks_recovered;
  fp_screens += o.fp_screens;
  if (o.residual_max > residual_max) residual_max = o.residual_max;
  return *this;
}

std::string AbftCounters::summary() const {
  if (!any()) return {};
  std::ostringstream os;
  os << "abft: checks=" << checksums << " det=" << detections
     << " nonfinite=" << nonfinite << " recovered=" << blocks_recovered
     << " screened=" << fp_screens << " resid_max=" << residual_max;
  return os.str();
}

AbftCounters* sink() { return tls_sink; }

ScopedAbftCounters::ScopedAbftCounters(AbftCounters& c) : prev_(tls_sink) {
  tls_sink = &c;
}

ScopedAbftCounters::~ScopedAbftCounters() { tls_sink = prev_; }

double mul_error_bound(const IhwConfig& icfg) {
  error::UnitKind kind{};
  int param = 0;
  if (!map_mul(icfg, &kind, &param)) return 0x1p-24;

  // The characterization is deterministic (Sobol QMC, ISA-bit-identical),
  // so one derivation per (datapath, param) serves the whole process.
  static std::mutex mu;
  static std::map<std::pair<int, int>, double> cache;
  const std::pair<int, int> key{static_cast<int>(kind), param};
  std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  double bound;
  {
    // The QMC driver runs through the parallel runtime's epoch hooks;
    // uninstall the ambient context so deriving a threshold cannot perturb
    // the epoch/breaker state of the gemm::run being verified.
    gpu::ScopedNoContext off;
    const auto res = error::characterize32(kind, param, kPmfSamples);
    const int b = res.pmf.max_nonzero_bucket();
    // Bucket b holds err% in (2^(b-1), 2^b]: the upper edge, as a fraction,
    // is a sound per-op bound for every observed sample; the kSafety factor
    // absorbs the tail the sample budget may have missed.
    bound = b < res.pmf.min_bucket() ? 0x1p-24 : std::ldexp(1.0, b) / 100.0;
  }
  bound = std::max(bound, 0x1p-24);
  cache.emplace(key, bound);
  return bound;
}

double accum_envelope(const GemmConfig& g, int K) {
  const double kd = K > 0 ? static_cast<double>(K) : 0.0;
  switch (g.accum) {
    case AccumMode::kFp32:
      return kd * 0x1p-24;  // round-to-nearest at 23 fraction bits
    case AccumMode::kFp32Trunc: {
      const int tr = clamp_int(g.accum_trunc, 0, 22);
      const int t = 23 - tr;
      // Matches the feature_detect oracle: the pre-truncation nearest
      // rounding survives into the kept bits below tr = 2, after which the
      // dropped LSBs make the step round-toward-zero at t fraction bits.
      return kd * std::ldexp(1.0, -(tr < 2 ? t + 1 : t));
    }
    case AccumMode::kIfpAdd: {
      const int th = clamp_int(g.accum_th, 1, 27);
      // One TH-adder step can drop up to ~2^(1-TH) of the larger operand
      // (alignment truncation inside the threshold window, whole-operand
      // drops past it). The bound is relative to the magnitude sum, which
      // cancellation cannot inflate, so it stays linear in K.
      return kd * std::min(1.0, std::ldexp(1.0, 1 - th));
    }
    case AccumMode::kWideFp64: {
      const double blk = static_cast<double>(std::max(1, g.accum_block));
      // Exact-ish fp64 accumulation inside each wide block, one fp32
      // rounding per fold back into the C entry.
      return kd * 0x1p-53 + std::ceil(kd / blk) * 0x1p-24;
    }
  }
  return kd;
}

Thresholds thresholds(const float* A, const float* B, int M, int N, int K,
                      const GemmConfig& g, const IhwConfig& icfg) {
  Thresholds t;
  if (M <= 0 || N <= 0 || K <= 0) return t;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  const std::size_t sK = static_cast<std::size_t>(K);

  t.per_op = mul_error_bound(icfg);
  t.envelope = accum_envelope(g, K);
  const double rel = kSafety * (t.per_op + t.envelope);

  // B row sums / A column sums -- the checksum vectors of Huang-Abraham.
  std::vector<double> bsum(sK, 0.0), babs(sK, 0.0);
  for (std::size_t k = 0; k < sK; ++k) {
    const float* brow = B + k * sN;
    for (std::size_t j = 0; j < sN; ++j) {
      const double v = static_cast<double>(brow[j]);
      bsum[k] += v;
      babs[k] += std::fabs(v);
    }
  }
  std::vector<double> asum(sK, 0.0), aabs(sK, 0.0);
  for (std::size_t i = 0; i < sM; ++i) {
    const float* arow = A + i * sK;
    for (std::size_t k = 0; k < sK; ++k) {
      const double v = static_cast<double>(arow[k]);
      asum[k] += v;
      aabs[k] += std::fabs(v);
    }
  }

  t.row_ref.resize(sM);
  t.row.resize(sM);
  for (std::size_t i = 0; i < sM; ++i) {
    const float* arow = A + i * sK;
    double ref = 0.0, mag = 0.0;
    for (std::size_t k = 0; k < sK; ++k) {
      const double a = static_cast<double>(arow[k]);
      ref += a * bsum[k];
      mag += std::fabs(a) * babs[k];
    }
    t.row_ref[i] = ref;
    t.row[i] = rel * mag;
  }

  t.col_ref.assign(sN, 0.0);
  t.col.assign(sN, 0.0);
  for (std::size_t k = 0; k < sK; ++k) {
    const float* brow = B + k * sN;
    for (std::size_t j = 0; j < sN; ++j) {
      const double b = static_cast<double>(brow[j]);
      t.col_ref[j] += asum[k] * b;
      t.col[j] += aabs[k] * std::fabs(b);
    }
  }
  for (std::size_t j = 0; j < sN; ++j) t.col[j] *= rel;
  return t;
}

void verify(const float* A, const float* B, float* C, int M, int N, int K,
            const GemmConfig& g) {
  if (g.abft == AbftMode::kOff || M <= 0 || N <= 0 || K <= 0) return;
  const std::size_t sM = static_cast<std::size_t>(M);
  const std::size_t sN = static_cast<std::size_t>(N);
  const std::size_t sK = static_cast<std::size_t>(K);
  auto* ctx = gpu::FpContext::current();
  const IhwConfig icfg = ctx ? ctx->config() : IhwConfig::precise();
  const Thresholds th = thresholds(A, B, M, N, K, g, icfg);

  AbftCounters local;
  local.checksums = sM + sN;

  // Actual row/column sums of the computed C, in fp64 (the checksum unit).
  std::vector<double> crow(sM, 0.0), ccol(sN, 0.0);
  for (std::size_t i = 0; i < sM; ++i) {
    const float* row = C + i * sN;
    for (std::size_t j = 0; j < sN; ++j) {
      const double v = static_cast<double>(row[j]);
      crow[i] += v;
      ccol[j] += v;
    }
  }

  std::vector<char> row_flag(sM, 0), col_flag(sN, 0);
  bool any_flag = false;
  const double inf = std::numeric_limits<double>::infinity();
  auto classify = [&](double got, double ref, double tau, char* flag) {
    // A non-finite reference or threshold means the *inputs* are
    // pathological (non-finite or overflowing magnitudes) -- there is no
    // sound classification, so the check abstains rather than flags.
    if (!std::isfinite(ref) || !std::isfinite(tau)) return;
    if (!std::isfinite(got)) {
      ++local.nonfinite;  // a fault's Inf/NaN can never be imprecision
      ++local.detections;
      *flag = 1;
      any_flag = true;
      return;
    }
    const double resid = std::fabs(got - ref);
    const double ratio =
        tau > 0.0 ? resid / tau : (resid > 0.0 ? inf : 0.0);
    if (ratio > local.residual_max) local.residual_max = ratio;
    if (resid > tau) {
      ++local.detections;
      *flag = 1;
      any_flag = true;
    }
  };
  for (std::size_t i = 0; i < sM; ++i)
    classify(crow[i], th.row_ref[i], th.row[i], &row_flag[i]);
  for (std::size_t j = 0; j < sN; ++j)
    classify(ccol[j], th.col_ref[j], th.col[j], &col_flag[j]);

  if (g.abft == AbftMode::kRecover && any_flag) {
    const std::size_t rb = kRecoverBlock;
    const std::size_t nrb = (sM + rb - 1) / rb;
    const std::size_t ncb = (sN + rb - 1) / rb;
    std::vector<char> rblk(nrb, 0), cblk(ncb, 0);
    bool any_row = false, any_col = false;
    for (std::size_t i = 0; i < sM; ++i)
      if (row_flag[i]) {
        rblk[i / rb] = 1;
        any_row = true;
      }
    for (std::size_t j = 0; j < sN; ++j)
      if (col_flag[j]) {
        cblk[j / rb] = 1;
        any_col = true;
      }
    // A detection on only one axis localizes only that axis: the other
    // side widens to the full stripe (row x all-cols / col x all-rows).
    if (!any_row) std::fill(rblk.begin(), rblk.end(), 1);
    if (!any_col) std::fill(cblk.begin(), cblk.end(), 1);

    // Force the numeric guard on for the recompute: a fault striking the
    // recovery pass itself is screened against the precise product and
    // recovered, so the repaired element deviates from the canonical value
    // by at most the guard tolerance per product -- inside the detection
    // threshold by the kSafety margin. The tolerance sits above the
    // multiplier's own legitimate error so fault-free recomputes (the
    // false-positive screens) stay bit-identical.
    IhwConfig saved;
    if (ctx) {
      saved = ctx->config();
      IhwConfig rc = saved;
      rc.guard.enabled = true;
      rc.guard.recover = true;
      rc.guard.retry_epoch = false;
      rc.guard.tolerance = std::max(4.0 * th.per_op, 0x1p-20);
      ctx->set_config(rc);
    }

    std::uint64_t recomputed = 0;
    std::vector<char> changed(ncb, 0);
    for (std::size_t ib = 0; ib < nrb; ++ib) {
      if (!rblk[ib]) continue;
      std::fill(changed.begin(), changed.end(), 0);
      const std::size_t i1 = std::min(sM, (ib + 1) * rb);
      for (std::size_t i = ib * rb; i < i1; ++i) {
        // Fresh epoch labels (M + i): recovery draws are independent of the
        // main pass's, never a replay of the fault being repaired.
        if (ctx) ctx->begin_epoch(sM + i);
        for (std::size_t jb = 0; jb < ncb; ++jb) {
          if (!cblk[jb]) continue;
          const std::size_t j1 = std::min(sN, (jb + 1) * rb);
          for (std::size_t j = jb * rb; j < j1; ++j) {
            const float v = detail::canonical_element(A, B, sN, sK, i, j, g);
            float* slot = C + i * sN + j;
            std::uint32_t vb, sb;
            std::memcpy(&vb, &v, sizeof vb);
            std::memcpy(&sb, slot, sizeof sb);
            if (vb != sb) {
              *slot = v;
              changed[jb] = 1;
            }
            ++recomputed;
          }
        }
      }
      for (std::size_t jb = 0; jb < ncb; ++jb) {
        if (!cblk[jb]) continue;
        if (changed[jb])
          ++local.blocks_recovered;
        else
          ++local.fp_screens;  // flagged but bit-identical on recompute
      }
    }

    if (ctx) {
      ctx->set_config(saved);
      ctx->end_launch();
      // The recompute issues real MACs on the matrix unit; the checksum
      // sums themselves are the dedicated unit, outside the op counters.
      ctx->counters().bump(gpu::OpClass::FMul, recomputed * sK);
      ctx->counters().bump(gpu::OpClass::FAdd, recomputed * sK);
    }
  }

  if (tls_sink != nullptr) *tls_sink += local;
}

}  // namespace ihw::gemm::abft

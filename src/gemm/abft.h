#pragma once
// ABFT layer for the tile-GEMM engine (DESIGN.md §15): Huang-Abraham-style
// row/column checksum verification with PMF-calibrated thresholds and
// localized block recovery.
//
// The paper's premise is that imprecise units make *bounded, characterized*
// errors, so a transient hardware fault (the unbounded kind src/fault/
// injects) is statistically distinguishable from expected imprecision
// without paying GuardedDispatch's O(M*N*K) precise-path screen. After a
// gemm::run with GemmConfig::abft != kOff:
//
//   1. Checksum references are computed through the precise fp64 datapath
//      (a dedicated checksum unit at nominal voltage): for every output row
//      i, row_ref[i] = sum_k A[i,k] * bsum[k] with bsum[k] = sum_j B[k,j],
//      and symmetrically col_ref[j] from the A column sums. Cost is
//      O(M*N + M*K + K*N) -- asymptotically free next to the O(M*N*K) MACs.
//   2. Every row/column sum of the computed C is compared to its reference.
//      The residual |crow[i] - row_ref[i]| is classified against a per-row
//      threshold derived from the *characterized* error envelope of the
//      active configuration: the multiplier's QMC error PMF
//      (error::characterize32, cached per datapath) plus the accumulation
//      policy's per-step bound from the gemm/feature_detect model, scaled by
//      K and the row's magnitude sum. A non-finite checksum where the
//      reference is finite detects immediately.
//   3. Under AbftMode::kRecover, every flagged (row-block, col-block)
//      intersection -- fixed kRecoverBlock granularity, independent of the
//      mc/nc tiling so recovery is schedule-invariant -- is recomputed
//      serially through the canonical guarded-dispatch chain
//      (gemm::detail::canonical_element) on fresh epoch labels (M + i) with
//      the numeric guard forced on, so a fault striking the recovery pass
//      itself is screened against the precise datapath and cannot survive
//      beyond the quality bound.
//
// Determinism contract: verification and recovery run serially on the
// caller's thread after the main pass, consuming deterministic epoch/op
// labels, so C, AbftCounters, and FaultCounters are bit-identical at any
// tiling, --threads, and ISA level (tests/test_abft.cpp).
#include <cstdint>
#include <string>
#include <vector>

#include "gemm/gemm.h"
#include "ihw/config.h"

namespace ihw::gemm::abft {

/// Fixed recovery granularity (output elements per block side). Deliberately
/// not tied to GemmConfig::mc/nc: recovery must touch the same elements for
/// the same fault pattern at any tiling, or the bit-identity contract breaks.
inline constexpr int kRecoverBlock = 32;

/// Safety factor between the analytic fault-free error envelope and the
/// detection threshold: absorbs the PMF bucket granularity (one power of
/// two), partial-sum slack, and the sub-tolerance faults the forced guard
/// can let into a recovered element. 8x keeps false positives at exactly
/// zero across the whole accumulation-policy grid while leaving exponent-
/// scale timing errors many orders of magnitude above threshold.
inline constexpr double kSafety = 8.0;

/// QMC sample budget for the cached multiplier-PMF characterization.
inline constexpr std::uint64_t kPmfSamples = 8192;

/// Observability of the ABFT layer, merged like FaultCounters (shard order;
/// verification itself is serial so the merge is associative addition plus a
/// max on residual_max).
struct AbftCounters {
  std::uint64_t checksums = 0;         ///< residual checks performed (M + N per verify)
  std::uint64_t detections = 0;        ///< flagged rows + columns
  std::uint64_t nonfinite = 0;         ///< detections via non-finite checksums
  std::uint64_t blocks_recovered = 0;  ///< flagged blocks whose recompute changed bits
  std::uint64_t fp_screens = 0;        ///< flagged blocks recomputed bit-identical
  double residual_max = 0.0;           ///< max residual/threshold ratio observed

  AbftCounters& operator+=(const AbftCounters& o);
};

/// Thread-local counter sink: gemm::run's verification adds its tallies to
/// the installed counters (nullptr = counting disabled). Mirrors how fault
/// counters ride the ambient context.
AbftCounters* sink();

/// RAII installer for the thread-local AbftCounters sink.
class ScopedAbftCounters {
 public:
  explicit ScopedAbftCounters(AbftCounters& c);
  ~ScopedAbftCounters();
  ScopedAbftCounters(const ScopedAbftCounters&) = delete;
  ScopedAbftCounters& operator=(const ScopedAbftCounters&) = delete;

 private:
  AbftCounters* prev_;
};

/// Per-operation relative error bound of one multiply through `icfg`'s
/// datapath: the upper edge of the highest non-empty bucket of the unit's
/// characterized error PMF (error::characterize32 over kPmfSamples
/// quasi-MC points, cached per (datapath, param) for the process), floored
/// at the 2^-24 rounding ulp. Runs under gpu::ScopedNoContext so deriving a
/// threshold never perturbs the run being verified.
double mul_error_bound(const IhwConfig& icfg);

/// Accumulated relative error bound of the K-step accumulation chain of
/// `g` -- the per-step bound of the gemm/feature_detect accumulator model
/// (effective fraction bits + rounding direction per policy) summed over
/// the chain, including the fold steps of the kWideFp64 policy.
double accum_envelope(const GemmConfig& g, int K);

/// Checksum references and detection thresholds for one (A, B, config)
/// triple, all computed in fp64 through the precise host datapath.
struct Thresholds {
  std::vector<double> row_ref;  ///< expected row sums of C (M entries)
  std::vector<double> col_ref;  ///< expected column sums of C (N entries)
  std::vector<double> row;      ///< per-row absolute residual thresholds
  std::vector<double> col;      ///< per-column absolute residual thresholds
  double per_op = 0.0;          ///< multiplier bound (mul_error_bound)
  double envelope = 0.0;        ///< accumulation bound (accum_envelope)
};

Thresholds thresholds(const float* A, const float* B, int M, int N, int K,
                      const GemmConfig& g, const IhwConfig& icfg);

/// Verifies (and under kRecover repairs, in place) the output of a
/// gemm::run(A, B, C, ...) call. Called by run() itself when
/// cfg.abft != AbftMode::kOff; exposed for the validation harness.
void verify(const float* A, const float* B, float* C, int M, int N, int K,
            const GemmConfig& g);

}  // namespace ihw::gemm::abft

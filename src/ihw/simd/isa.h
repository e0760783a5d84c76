#pragma once
// Runtime ISA dispatch for the span kernels of ihw/batch.h (DESIGN.md §13).
//
// The span loops of ihw/lanes.inc are compiled once at the portable
// baseline (inside batch.h) and once more per vector ISA: kernels_avx2.cpp
// and kernels_avx512.cpp each include the same source under just enough -m
// flags for their ISA and export one KernelTable of its float loops. A
// cpuid-based detector picks the widest supported table once per process,
// so one default build binary runs the vector loops on any x86-64 host; on
// other architectures every table entry is null and the baseline loops run.
//
// Bit-identity contract: a backend entry is only allowed in a table if it
// produces exactly the bits of the baseline loop in batch.h for every
// input, including NaN/Inf/signed-zero/subnormal operands and every runtime
// parameter (TH, truncation mask). Sharing the source makes that hold by
// construction as long as no build contracts a*b+c into an FMA
// (-ffp-contract=off); tests/test_simd.cpp enforces it with exhaustive
// 16-bit-pattern cross-checks plus randomized fuzz per backend, and the
// CTest suite re-runs under IHW_FORCE_ISA=scalar/avx2/avx512 so the whole
// tree is exercised on each level the host supports. Because every backend
// is bit-identical, FpDispatch::*_n, GuardedDispatch::*_n, and
// runtime::batch_apply swap backends without any observable difference
// beyond speed.
//
// Overrides: the IHW_FORCE_ISA environment variable (scalar|avx2|avx512,
// read once at first use) pins the backend for testing and benchmarking;
// isa_force()/ScopedIsa do the same programmatically. Forcing a level the
// host cannot execute clamps down to the widest supported one, so a forced
// binary never faults on an illegal instruction.
#include <cstddef>
#include <cstdint>

namespace ihw::simd {

/// Backend levels, widest last.
enum class IsaLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One resolved backend: the name that bench rows and logs report, plus one
/// function pointer per vectorized span loop. A null entry means "no build
/// of this loop at this level" and the caller runs the baseline loop (that
/// is the entire scalar table, and the double-precision lanes of every
/// table -- the hot app spans are float).
///
/// Signatures mirror the batch.h span wrappers with the per-span parameter
/// resolution already done by the caller: `th` arrives pre-clamped to
/// [1, frac_bits+4], `flip` is the sign mask to XOR into b (ifp_sub), and
/// `keep` is the fraction keep-mask of the truncating multipliers. The
/// *_mac_f32 entries are the fused multiply-accumulate kernels: `th` is 0
/// (precise accumulate, result masked by the full-word `acc_keep`) or
/// pre-clamped to [1, frac_bits+4] (TH-adder accumulate), exactly the
/// batch::mac_clamp normalization.
struct KernelTable {
  const char* name = "scalar";
  void (*ifp_add_f32)(const float* a, const float* b, float* out,
                      std::size_t n, int th, std::uint32_t flip) = nullptr;
  void (*ifp_mul_f32)(const float* a, const float* b, float* out,
                      std::size_t n) = nullptr;
  void (*acfp_log_f32)(const float* a, const float* b, float* out,
                       std::size_t n, std::uint32_t keep) = nullptr;
  void (*trunc_mul_f32)(const float* a, const float* b, float* out,
                        std::size_t n, std::uint32_t keep) = nullptr;
  void (*ircp_f32)(const float* x, float* out, std::size_t n) = nullptr;
  void (*ifp_mac_f32)(const float* a, const float* b, const float* c,
                      float* out, std::size_t n, int th,
                      std::uint32_t acc_keep) = nullptr;
  void (*acfp_log_mac_f32)(const float* a, const float* b, const float* c,
                           float* out, std::size_t n, std::uint32_t keep,
                           int th, std::uint32_t acc_keep) = nullptr;
  void (*trunc_mac_f32)(const float* a, const float* b, const float* c,
                        float* out, std::size_t n, std::uint32_t keep,
                        int th, std::uint32_t acc_keep) = nullptr;
};

/// Canonical lowercase name ("scalar", "avx2", "avx512").
const char* isa_name(IsaLevel level);

/// Parses a canonical name (as accepted by IHW_FORCE_ISA). Returns false on
/// anything else; *out is untouched on failure.
bool isa_parse(const char* s, IsaLevel* out);

/// Widest level this host can execute, detected once via cpuid.
IsaLevel isa_best_supported();

/// True when the host can execute `level` (kScalar always can).
bool isa_supported(IsaLevel level);

/// The currently installed level (after detection, IHW_FORCE_ISA, and any
/// isa_force calls).
IsaLevel isa_active();

/// Installs the backend for `level`, clamping down to the widest supported
/// level at or below it (a forced binary must never hit an illegal
/// instruction). Returns the level actually installed. Thread-safe against
/// concurrent kernel invocations (the table pointer is atomic); concurrent
/// forcers race benignly to whichever installs last.
IsaLevel isa_force(IsaLevel level);

/// The active kernel table. Cheap (one relaxed atomic load); span kernels
/// call it once per span.
const KernelTable& kernels();

/// RAII backend override for tests and per-row benchmarks.
class ScopedIsa {
 public:
  explicit ScopedIsa(IsaLevel level) : prev_(isa_active()) { isa_force(level); }
  ~ScopedIsa() { isa_force(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  IsaLevel prev_;
};

namespace detail {
// Defined in kernels_avx2.cpp / kernels_avx512.cpp, compiled only on x86
// (IHW_X86_SIMD); isa.cpp references them under the same guard.
extern const KernelTable kAvx2Table;
extern const KernelTable kAvx512Table;
}  // namespace detail

}  // namespace ihw::simd

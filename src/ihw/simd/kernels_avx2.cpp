// The AVX2 build of the span loops in ihw/lanes.inc (DESIGN.md §13).
//
// src/ihw/CMakeLists.txt compiles this file alone with -mavx2 (plus
// -ffp-contract=off: the ircp lane multiplies in double, and a contracted
// fma would change its rounding), and isa.cpp installs the table only after
// cpuid reports AVX2, so the rest of the library keeps the portable
// baseline. lanes.inc is included inside an anonymous namespace: every
// function compiled here has internal linkage, and the table is the only
// symbol this object exports (tests/check_simd_symbols.cmake).
#include <cstddef>
#include <cstdint>

#include "fpcore/float_bits.h"
#include "ihw/simd/isa.h"

namespace ihw::simd {
namespace {
#include "ihw/lanes.inc"
}  // namespace

namespace detail {
const KernelTable kAvx2Table = {
    "avx2",
    &ifp_add_span<float>,
    &ifp_mul_span<float>,
    &acfp_log_span<float>,
    &trunc_mul_span<float>,
    &ircp_span,
    &ifp_mac_span<float>,
    &acfp_log_mac_span<float>,
    &trunc_mac_span<float>,
};
}  // namespace detail

}  // namespace ihw::simd

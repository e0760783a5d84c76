#pragma once
// Structural (stage-by-stage) datapath models of the proposed units, built
// from explicit hardware primitives: priority encoder, barrel shifter,
// width-masked adders, and an array multiplier with column truncation.
// These mirror the VHDL models of Fig. 11. They are a test oracle: the test
// suite cross-checks them bit-exactly against the functional models in
// src/ihw, which is the evidence that substituting the functional models for
// the hardware is sound. Only array_cell_count has a production caller (the
// NFM power model and table3_int_units).
#include <cstdint>

#include "ihw/acfp_mul.h"

namespace ihw::arith {

/// Priority encoder: position of the most-significant set bit within
/// `width` bits, or -1 when the masked input is zero.
int priority_encode(std::uint64_t v, int width);

/// Barrel shifter: logical right shift within `width` bits; shifts >= width
/// return 0 (as the hardware shifter saturates).
std::uint64_t barrel_shift_right(std::uint64_t v, int shift, int width);

/// Barrel shifter: logical left shift within `width` bits (excess truncated).
std::uint64_t barrel_shift_left(std::uint64_t v, int shift, int width);

/// n-bit adder with carry-in; result masked to n bits, carry-out reported.
struct AdderResult {
  std::uint64_t sum;
  bool carry_out;
};
AdderResult add_n(std::uint64_t a, std::uint64_t b, bool cin, int width);

/// Unsigned array multiplier with column truncation: partial products
/// a_i * b_j with (i + j) < drop_columns are not formed. drop_columns = 0
/// gives the exact product. Models the truncated-multiplication-matrix
/// designs of Wires et al.
unsigned __int128 array_multiply(std::uint64_t a, std::uint64_t b, int n_bits,
                                 int m_bits, int drop_columns);

/// Number of partial-product cells an (n x m) array multiplier instantiates
/// when columns below `drop_columns` are removed -- the dominant dynamic
/// power term of the mantissa multiplier in the gate-level power model.
long long array_cell_count(int n_bits, int m_bits, int drop_columns);

// --- structural unit mirrors (binary32), for cross-verification ----------

/// TH-threshold imprecise adder built strictly from the primitives above.
float structural_ifp_add32(float a, float b, int th, bool subtract = false);

/// Accuracy-configurable Mitchell multiplier (Fig. 7 datapath: priority
/// encoders + Add1/Add2/Add3 with multiplexed paths).
float structural_acfp_mul32(float a, float b, ihw::AcfpPath path, int trunc);

}  // namespace ihw::arith

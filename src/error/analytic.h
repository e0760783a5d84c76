#pragma once
// Closed-form error bounds from the paper's formal analysis (Ch. 4.1) plus
// numerically-derived extrema for the linear-approximation SFUs. These are
// the "formal mathematical analysis" side of the error methodology; the
// characterization driver (characterize.h) is the numerical side. They are
// a test oracle: the test suite checks every characterized emax against
// them. table1_emax prints them as its "analytic" column.
namespace ihw::error::analytic {

// --- TH-threshold adder (Ch. 4.1.1) ----------------------------------------
/// Case (a): effective addition, d >= TH (smaller operand dropped):
/// emax < 1 / (2^(TH-1) + 1).
double adder_add_beyond_th(int th);
/// Case (b): effective addition, 0 < d < TH (alignment truncation):
/// emax < 1 / 2^(TH+1).
double adder_add_within_th(int th);
/// Case (c): effective subtraction, d >= TH: emax < 1 / (2^(TH-1) - 1).
double adder_sub_beyond_th(int th);
/// Overall effective-addition bound used by the tests (the max of the two
/// addition cases plus the datapath's double-operand truncation).
double adder_add_bound(int th);

// --- multipliers ------------------------------------------------------------
/// Mitchell's algorithm (and the log path): emax = 1/9 = 11.11%.
double mitchell_emax();
/// The original 1+Ma+Mb multiplier: emax = 1/4 at Ma = Mb -> 1.
double simple_mul_emax();
/// Full path (Ch. 4.1.2): emax = 1/49 ~ 2.04%, via the minimization of
/// g(x_a, x_b) the paper derives; computed numerically here and equal to the
/// closed form.
double full_path_emax();
/// Intuitive result-truncation baseline with `trunc` of `frac_bits` fraction
/// bits removed: emax -> 2^-(frac_bits - trunc) (approached from below).
double bit_trunc_emax(int trunc, int frac_bits);

// --- linear-approximation SFUs (Table 1) ------------------------------------
/// max |1 - x (2.823 - 1.882 x)| over x in [0.5, 1]: ~5.88%.
double rcp_emax();
/// max relative error of 2.08 - 1.1911 x against 1/sqrt(x) on [0.25, 1]:
/// ~11.11%.
double rsqrt_emax();
/// Same segment used as sqrt(x) ~ x (2.08 - 1.1911 x): ~11.11%.
double sqrt_emax();
/// Absolute (not relative -- the relative error is unbounded near log2 = 0)
/// residual of e + 0.9846 m - 0.9196: max over m in [1, 2).
double log2_abs_residual();
/// Relative error of the 2^f ~ 1+f antilog segment: (1+f)/2^f - 1 maximized
/// at f = 1/ln2 - 1: ~6.15%.
double exp2_emax();

}  // namespace ihw::error::analytic

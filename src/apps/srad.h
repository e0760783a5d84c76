#pragma once
// SRAD -- Speckle Reducing Anisotropic Diffusion (Yu & Acton 2002, Rodinia
// port): PDE-based despeckling for ultrasound/radar imagery. Two kernels per
// iteration: (1) directional derivatives + diffusion coefficient from the
// instantaneous coefficient of variation, (2) divergence update. Quality is
// judged as in the original SRAD paper: binary edge maps of the despeckled
// image scored with Pratt's figure of merit against the ideal segmentation.
#include <cstdint>

#include "common/image.h"
#include "gpu/simreal.h"
#include "quality/pratt.h"

namespace ihw::apps {

struct SradParams {
  std::size_t rows = 256;
  std::size_t cols = 256;
  int iterations = 100;
  double lambda = 0.5;
  // Homogeneous region of interest used for the speckle-scale estimate q0.
  std::size_t roi_r0 = 0, roi_r1 = 32, roi_c0 = 0, roi_c1 = 32;
};

struct SradInput {
  common::GridF image;          // speckled intensity image (0..255)
  quality::EdgeMap ideal_edges; // ground-truth segmentation boundary
};

/// Synthesizes an ultrasound-like phantom: dark elliptical cysts on a
/// brighter background, corrupted with multiplicative speckle noise. The
/// ideal edge map traces the true cyst boundaries.
SradInput make_srad_input(const SradParams& p, std::uint64_t seed);

/// Runs SRAD diffusion; returns the despeckled image. Real = float is the
/// plain reference; the gpu::SimFloat instantiation is the per-element SIMT
/// simulation, the named reference oracle of run_srad_batched and the path
/// screened (fault/guard) configs take.
template <typename Real>
common::GridF run_srad(const SradParams& p, const common::GridF& image);

/// Full quality pipeline: diffuse, edge-detect, score against ideal.
double srad_pratt_fom(const common::GridF& despeckled,
                      const quality::EdgeMap& ideal_edges);

/// The production path -- every bench binary runs this. Batched SoA port of
/// run_srad: both kernels sweep row spans through the gpu/batch.h fast path.
/// Bit-identical outputs and PerfCounters to run_srad<SimFloat> under an
/// unscreened FpContext; delegates to that scalar path when fault/guard
/// screening is active; matches run_srad<float> without a context.
common::GridF run_srad_batched(const SradParams& p, const common::GridF& image);

extern template common::GridF run_srad<float>(const SradParams&,
                                              const common::GridF&);
extern template common::GridF run_srad<gpu::SimFloat>(const SradParams&,
                                                      const common::GridF&);

}  // namespace ihw::apps

#pragma once
// CP (Coulomb Potential, Parboil-style): computes the electrostatic
// potential on a 2-D lattice slice induced by a cloud of point charges, the
// preparation step for placing counterions near a biological molecule ahead
// of molecular-dynamics simulation. As in the paper's study, the ~20% of
// multiplications that produce lattice coordinates are kept precise; only
// the potential accumulation runs on the imprecise units.
#include <cstdint>
#include <vector>

#include "common/image.h"
#include "gpu/simreal.h"

namespace ihw::apps {

struct CpParams {
  std::size_t grid = 128;     // lattice points per side
  std::size_t natoms = 192;
  double spacing = 0.05;      // lattice spacing (nm)
  double slice_z = 0.4;       // z of the evaluated lattice plane
};

struct CpAtom {
  float x, y, z, q;
};

std::vector<CpAtom> make_cp_atoms(const CpParams& p, std::uint64_t seed);

/// Returns the potential at every lattice point of the slice. Real = float
/// is the plain reference; the gpu::SimFloat instantiation is the
/// per-element SIMT simulation, the named reference oracle of run_cp_batched
/// and the path screened (fault/guard) configs take.
template <typename Real>
common::GridF run_cp(const CpParams& p, const std::vector<CpAtom>& atoms);

/// The production path -- every bench binary runs this. Batched SoA port of
/// run_cp: the atom loop runs span-wise over lattice rows through
/// gpu/batch.h (coordinates still computed under ScopedPrecise).
/// Bit-identical outputs and PerfCounters to run_cp<SimFloat> under an
/// unscreened FpContext; delegates to that scalar path when screening is
/// active; matches run_cp<float> without a context.
common::GridF run_cp_batched(const CpParams& p,
                             const std::vector<CpAtom>& atoms);

extern template common::GridF run_cp<float>(const CpParams&,
                                            const std::vector<CpAtom>&);
extern template common::GridF run_cp<gpu::SimFloat>(const CpParams&,
                                                    const std::vector<CpAtom>&);

}  // namespace ihw::apps

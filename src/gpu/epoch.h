#pragma once
// Epoch labelling for the fault/guard subsystem. An *epoch* is the smallest
// schedule-invariant unit of work -- one parallel_for element, which is a
// block of a parallel_launch or a chunk of a batch_apply, or one
// ordered_chunks chunk -- identified by its linear index in the region's own
// geometry. runtime::parallel_for and runtime::ordered_chunks label work
// through these helpers at any shard count, which is what makes the
// counter-based fault stream and the guard's epoch-local breaker
// bit-identical at any --threads=N.
#include <cstdint>

#include "gpu/context.h"

namespace ihw::gpu {

/// Runs one epoch's body under its schedule-invariant label. When the active
/// context's guard is in retry mode and the epoch trips, the body re-runs
/// fully precise (the block-granular retry-in-precise mode); the rerun's
/// operations are counted again, identically in serial and parallel runs.
template <typename Body>
inline void run_epoch(std::uint64_t index, Body&& body) {
  FpContext* c = FpContext::current();
  if (c == nullptr) {
    body();
    return;
  }
  struct Open {  // the body is open on c until it returns or throws
    int& depth;
    explicit Open(int& d) : depth(d) { ++depth; }
    ~Open() { --depth; }
  } open(c->open_epochs());
  c->begin_epoch(index);
  body();
  if (c->guarded().retry_epoch_needed()) {
    c->guarded().note_retry();
    ScopedPrecise precise;
    body();
  }
}

/// Region epilogue: evaluates the run-level circuit breaker on the calling
/// thread's context, once the region's shard counters have merged into it.
/// A region nested in an epoch of the same context leaves it to the
/// outermost region: at one shard its trips would accumulate on the caller's
/// context, at several on a shard's clone, and the breaker would open at
/// different points.
inline void finish_launch() {
  FpContext* c = FpContext::current();
  if (c != nullptr && c->open_epochs() == 0) c->end_launch();
}

}  // namespace ihw::gpu

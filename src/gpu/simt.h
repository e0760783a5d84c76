#pragma once
// SIMT coordinates: CUDA-like grid/block extents and the per-thread view a
// kernel sees. runtime::parallel_launch (runtime/parallel.h) runs a kernel
// over a grid with these coordinates -- the same thread IDs GPGPU-Sim's
// execution gives it; timing is modeled separately in timing.h from the
// performance counters.
#include <cstdint>

namespace ihw::gpu {

struct Dim3 {
  unsigned x = 1, y = 1, z = 1;
  constexpr Dim3() = default;
  constexpr Dim3(unsigned x_, unsigned y_ = 1, unsigned z_ = 1)
      : x(x_), y(y_), z(z_) {}
  /// Total extent. Widened to 64 bits: x * y * z in `unsigned` overflows for
  /// production-scale grids (e.g. 65536 x 65536 blocks).
  constexpr std::uint64_t count() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
};
static_assert(sizeof(Dim3) == 12);

/// Per-thread coordinates, as a CUDA kernel sees them.
struct ThreadCtx {
  Dim3 grid_dim, block_dim, block_idx, thread_idx;

  unsigned global_x() const { return block_idx.x * block_dim.x + thread_idx.x; }
  unsigned global_y() const { return block_idx.y * block_dim.y + thread_idx.y; }
  unsigned linear_tid() const {
    return (thread_idx.z * block_dim.y + thread_idx.y) * block_dim.x +
           thread_idx.x;
  }
};

}  // namespace ihw::gpu

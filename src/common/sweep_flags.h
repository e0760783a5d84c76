#pragma once
// The CLI surface every sweep-engine bench shares, parsed in one place
// instead of six copies: the cache/resilience flags of DESIGN.md §11-§12
// (--cache-dir, --resume, --isolate, --deadline) plus the tile-GEMM --abft
// mode.
#include <string>

namespace ihw::common {

class Args;

struct SweepFlags {
  /// --cache-dir=DIR: root of the on-disk record layer (empty = memory only).
  std::string cache_dir;
  /// --resume: replay the crash-safe journal under --cache-dir first.
  bool resume = false;
  /// --isolate: keep going past a failed point (exit kExitPointFailure).
  bool isolate = false;
  /// --deadline=S: per-point soft watchdog deadline, 0 disables.
  double deadline_s = 0.0;
  /// --abft=off|detect|recover: checksum fault detection on the tile-GEMM
  /// path (DESIGN.md §15). Stored as int so common/ stays gemm-agnostic;
  /// matches gemm::AbftMode (0 = off, 1 = detect, 2 = recover).
  int abft = 0;

  /// Parses the shared flags (strict numeric validation via Args; throws
  /// ArgError on malformed values).
  static SweepFlags from_args(const Args& args);
};

/// Parses the shared `--abft=off|detect|recover` flag to its gemm::AbftMode
/// integer value (0/1/2). Absent = 0. Any other value throws ArgError naming
/// the flag, same contract as the strict numeric accessors.
int parse_abft_flag(const Args& args);

}  // namespace ihw::common

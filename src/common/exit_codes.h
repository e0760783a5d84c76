#pragma once
// Process exit codes shared by the sweep benches and the CI tooling that
// inspects them. Extracted here (from sweep/health.h) so the codes have
// exactly one definition: the bench binaries and
// tools/crash_recovery_test.py both key off these values.

namespace ihw::common {

/// A bench drained gracefully after SIGINT/SIGTERM: in-flight points
/// finished and were checkpointed, the rest were skipped. EX_TEMPFAIL by
/// convention -- "interrupted but resumable", rerun with --resume.
inline constexpr int kExitDrained = 75;

/// A sweep completed under FailPolicy::isolate (--isolate) with at least one
/// failed point: the healthy rows are valid, but the run is not clean.
inline constexpr int kExitPointFailure = 3;

}  // namespace ihw::common

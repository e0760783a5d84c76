#pragma once
// Run-health side of the sweep resilience layer (DESIGN.md §12): per-point
// status taxonomy, the FailPolicy that governs how run_grid reacts to a
// throwing or hung evaluation, the run-level HealthReport surfaced on stderr
// and in --json output, and the SIGINT/SIGTERM graceful-drain flag shared by
// the sweep benches.
#include <cstdint>
#include <string>

#include "common/exit_codes.h"

namespace ihw::common {
struct SweepFlags;
}

namespace ihw::sweep {

class Json;

/// Provenance/outcome of one grid point.
enum class PointStatus : unsigned char {
  Evaluated,  // evaluated cold in this call and completed
  CacheHit,   // served from the cache (memory, disk, or journal replay)
  Failed,     // the point's eval threw; captured, rest of grid unaffected
  Skipped,    // not started: a drain was requested before it was scheduled
};

const char* to_string(PointStatus s);

/// How run_grid reacts to a failing point.
///  - fail_fast (default): the grid drains, then the first failure in point
///    order is rethrown on the caller -- the pre-PR-5 contract, made
///    deterministic (point order, not completion order).
///  - isolate: a throwing eval marks only that point Failed (its
///    exception_ptr is captured into GridOutcome) and every other point
///    completes and is cached/journaled normally.
/// soft_deadline_s > 0 arms a per-point watchdog: an evaluation that runs
/// longer is flagged in GridOutcome/HealthReport (and diagnosed on stderr
/// while still running) but never cancelled -- the deadline is soft.
struct FailPolicy {
  bool fail_fast = true;
  bool isolate = false;
  double soft_deadline_s = 0.0;
};

/// The FailPolicy every sweep bench derives from its shared CLI flags
/// (--isolate implies not fail-fast; --deadline arms the soft watchdog).
FailPolicy make_fail_policy(const common::SweepFlags& flags);

/// Run-level resilience counters. run_grid / characterize_grid* accumulate
/// into this (so one report can span several grids); the cache-layer fields
/// (quarantines, io_retries) are deltas of the EvalCache counters across the
/// call, and journal_replayed is filled by EvalCache::attach_journal via
/// EvalCache::journal_replayed().
struct HealthReport {
  std::uint64_t points = 0;           // grid points requested
  std::uint64_t cache_hits = 0;       // served without evaluation
  std::uint64_t evaluated = 0;        // evaluated cold and completed
  std::uint64_t failures = 0;         // evals that threw (isolate mode)
  std::uint64_t skipped = 0;          // never started due to a drain
  std::uint64_t deadline_flags = 0;   // evals that exceeded the soft deadline
  std::uint64_t quarantines = 0;      // corrupt cache records quarantined
  std::uint64_t io_retries = 0;       // transient disk-store retries
  std::uint64_t journal_replayed = 0; // entries restored by --resume

  /// One-line "k=v ..." summary for stderr diagnostics.
  std::string summary() const;
  /// Structured object for the --json bench output.
  Json to_json() const;
};

/// Installs SIGINT/SIGTERM handlers that request a graceful drain: running
/// grids finish their in-flight points, skip the rest, flush the journal,
/// and the bench exits with kDrainExitCode. Idempotent.
void install_drain_handler();

/// True once a drain has been requested (signal, or request_drain()).
bool drain_requested();

/// Requests a drain programmatically (also what the signal handler does).
void request_drain();

/// Clears the drain flag (tests; a new process starts clear).
void reset_drain();

/// Exit codes live in common/exit_codes.h (shared with the CI tooling);
/// these aliases keep the historical sweep:: spellings working.
inline constexpr int kDrainExitCode = common::kExitDrained;
inline constexpr int kPointFailureExitCode = common::kExitPointFailure;

}  // namespace ihw::sweep

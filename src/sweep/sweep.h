#pragma once
// Memoizing sweep driver (DESIGN.md §11-§12). A sweep is a list of
// evaluation points, each named by a canonical fingerprint
// (sweep/fingerprint.h) and carrying a closure that computes its EvalRecord
// from scratch. run_grid consults the EvalCache first, dedups points that
// share a fingerprint, and schedules the remaining cold evaluations across
// the thread pool with runtime::parallel_tasks_capture. Results come back
// in point order and are bit-identical to a sequential, cache-less
// evaluation: every closure builds its own deterministic context
// (DESIGN.md §8-§10), so neither the schedule nor the cache can change a
// record's bytes.
//
// Resilience (DESIGN.md §12): completed points are stored durably to the
// cache as they finish (the record store is the checkpoint), a FailPolicy
// chooses between deterministic fail-fast and per-point fault isolation, a
// soft-deadline watchdog flags hung evaluations, and a requested drain
// (SIGINT/SIGTERM) finishes in-flight points and skips the rest so the run
// can resume.
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "error/characterize.h"
#include "sweep/cache.h"
#include "sweep/health.h"

namespace ihw::sweep {

/// One sweep point: a fingerprint plus the closure that evaluates it cold.
/// The closure must be self-contained (it may run on any pool thread) and
/// deterministic, i.e. equal fingerprints imply bit-equal records.
struct GridPoint {
  std::uint64_t fp = 0;
  std::function<EvalRecord()> eval;
};

/// Records in point order plus per-point provenance for reporting.
struct GridOutcome {
  std::vector<EvalRecord> records;
  /// records[i] was served from the cache (memory or disk) rather
  /// than evaluated in this call. Points deduplicated onto an earlier point
  /// with the same fingerprint inherit that point's flag.
  std::vector<char> cache_hit;
  /// Per-point outcome; Failed and Skipped points leave records[i]
  /// default-constructed.
  std::vector<PointStatus> status;
  /// The captured exception of a Failed point (nullptr otherwise).
  /// Deduplicated points share their owner's exception.
  std::vector<std::exception_ptr> errors;
  /// records[i]'s evaluation exceeded FailPolicy::soft_deadline_s.
  std::vector<char> deadline_flagged;
  /// Run-level counters for this call (plus cache-layer deltas).
  HealthReport health;

  /// what() of errors[i], or "" when the point did not fail.
  std::string error_message(std::size_t i) const;
};

/// Evaluates every point: cache lookups first, then the cold points -- one
/// evaluation per distinct fingerprint -- across the pool (`threads`, 0 =
/// process default). Fresh records are stored as each
/// evaluation completes, so an interrupted run checkpoints every finished
/// point. `cache` may be nullptr (dedup still applies).
///
/// Under the default policy a failing eval is rethrown (first failure in
/// point order) after the grid drains; under FailPolicy::isolate it marks
/// only that point Failed and the rest of the grid completes. See
/// sweep/health.h.
GridOutcome run_grid(const std::vector<GridPoint>& points, EvalCache* cache,
                     const FailPolicy& policy, int threads = 0);
/// Fail-fast convenience overload (the pre-resilience signature).
GridOutcome run_grid(const std::vector<GridPoint>& points, EvalCache* cache,
                     int threads = 0);

/// One unit-characterization point of a quasi-MC sweep.
struct CharPoint {
  error::UnitKind kind;
  int param = 0;
  std::uint64_t samples = 0;
};

/// Cached shared-stream characterization grid: cache hits are replayed from
/// their stored accumulator state, and the remaining cold points with equal
/// sample budgets share one Sobol operand stream and one exact-reference
/// evaluation per distinct exact op (error::characterize32_many). Results
/// are in point order and bit-identical to standalone characterize32/64
/// calls. `hits` (optional) receives the per-point cache-hit flags.
/// Completed shared-stream groups are stored as they
/// finish, and a requested drain skips the remaining cold groups (their
/// results stay default-constructed -- check drain_requested() before
/// consuming them). `health` (optional) is accumulated into, so one report
/// can span several grids.
std::vector<error::CharResult> characterize_grid32(
    const std::vector<CharPoint>& points, EvalCache* cache,
    std::vector<char>* hits = nullptr, HealthReport* health = nullptr);
std::vector<error::CharResult> characterize_grid64(
    const std::vector<CharPoint>& points, EvalCache* cache,
    std::vector<char>* hits = nullptr, HealthReport* health = nullptr);

/// Fingerprint of one characterization point (the cache key used by
/// characterize_grid32/64; exposed for bench JSON output and tests).
std::uint64_t char_fingerprint(const CharPoint& p, bool is64);

}  // namespace ihw::sweep

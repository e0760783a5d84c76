#pragma once
// Run-level plumbing shared by the sweep benches (fig14_power_quality,
// fig08_error_char, mlp_inference, ablation_fault_guard,
// table5_system_savings, ablation_dvfs): one EvalCache with the bench's
// journal attached, the graceful-drain exit, the `[sweep] ...` stderr
// summary, and the common header of the --json document. Only stderr and
// the --json file are written here; stdout stays the bench's own.
#include <chrono>
#include <string>

#include "sweep/cache.h"
#include "sweep/health.h"
#include "sweep/json.h"

namespace ihw::common {
struct SweepFlags;
}

namespace ihw::sweep {

class BenchRun {
 public:
  /// Opens the cache under flags.cache_dir (memory only when empty),
  /// attaches the journal named `bench` -- replaying it first under
  /// --resume -- and starts the elapsed-time clock.
  BenchRun(std::string bench, const common::SweepFlags& flags);

  EvalCache& cache() { return cache_; }

  /// True when a graceful drain interrupted the run. It then prints
  /// "[sweep] drained (rerun with --resume): <health>" to stderr, and the
  /// bench returns kDrainExitCode without printing its table.
  bool drained(const HealthReport& health) const;

  /// Prints "[sweep] hits=H misses=M disk_hits=D stores=S elapsed_ms=T |
  /// <health>" to stderr (perfbench/run.py parses `evaluated=` from it) and,
  /// with a non-empty `json_path`, writes {bench, <params members>,
  /// elapsed_ms, cache_hits, cache_misses, disk_hits, health, rows}.
  /// Returns the bench's exit code: kPointFailureExitCode when a point
  /// failed under --isolate, else 0.
  int finish(const HealthReport& health, const std::string& json_path,
             Json rows, const Json& params = Json::object());

 private:
  std::string bench_;
  EvalCache cache_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace ihw::sweep

#include "sweep/bench_run.h"

#include <cstdio>
#include <utility>

#include "common/sweep_flags.h"

namespace ihw::sweep {

BenchRun::BenchRun(std::string bench, const common::SweepFlags& flags)
    : bench_(std::move(bench)), cache_(flags.cache_dir) {
  cache_.attach_journal(bench_, flags.resume);
  t0_ = std::chrono::steady_clock::now();
}

bool BenchRun::drained(const HealthReport& health) const {
  if (!drain_requested()) return false;
  std::fprintf(stderr, "[sweep] drained (rerun with --resume): %s\n",
               health.summary().c_str());
  return true;
}

int BenchRun::finish(const HealthReport& health, const std::string& json_path,
                     Json rows, const Json& params) {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
  std::fprintf(stderr,
               "[sweep] hits=%llu misses=%llu disk_hits=%llu stores=%llu "
               "elapsed_ms=%.1f | %s\n",
               static_cast<unsigned long long>(cache_.hits()),
               static_cast<unsigned long long>(cache_.misses()),
               static_cast<unsigned long long>(cache_.disk_hits()),
               static_cast<unsigned long long>(cache_.stores()), ms,
               health.summary().c_str());
  if (!json_path.empty()) {
    Json doc = Json::object();
    doc.set("bench", bench_);
    for (const auto& [key, value] : params.members()) doc.set(key, value);
    doc.set("elapsed_ms", ms)
        .set("cache_hits", cache_.hits())
        .set("cache_misses", cache_.misses())
        .set("disk_hits", cache_.disk_hits())
        .set("health", health.to_json())
        .set("rows", std::move(rows));
    if (!doc.write_file(json_path))
      std::fprintf(stderr, "[sweep] failed to write %s\n", json_path.c_str());
  }
  return health.failures > 0 ? kPointFailureExitCode : 0;
}

}  // namespace ihw::sweep

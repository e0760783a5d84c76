#include "sweep/health.h"

#include <csignal>
#include <cstdio>

#include "common/sweep_flags.h"
#include "sweep/json.h"

namespace ihw::sweep {
namespace {

volatile std::sig_atomic_t g_drain = 0;

void drain_signal_handler(int) { g_drain = 1; }

}  // namespace

const char* to_string(PointStatus s) {
  switch (s) {
    case PointStatus::Evaluated: return "evaluated";
    case PointStatus::CacheHit: return "cache_hit";
    case PointStatus::Failed: return "failed";
    case PointStatus::Skipped: return "skipped";
  }
  return "unknown";
}

FailPolicy make_fail_policy(const common::SweepFlags& flags) {
  FailPolicy policy;
  policy.isolate = flags.isolate;
  policy.fail_fast = !flags.isolate;
  policy.soft_deadline_s = flags.deadline_s;
  return policy;
}

std::string HealthReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "points=%llu hits=%llu evaluated=%llu failures=%llu "
                "skipped=%llu deadline_flags=%llu quarantines=%llu "
                "io_retries=%llu",
                static_cast<unsigned long long>(points),
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(evaluated),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(skipped),
                static_cast<unsigned long long>(deadline_flags),
                static_cast<unsigned long long>(quarantines),
                static_cast<unsigned long long>(io_retries));
  return buf;
}

Json HealthReport::to_json() const {
  return Json::object()
      .set("points", points)
      .set("cache_hits", cache_hits)
      .set("evaluated", evaluated)
      .set("failures", failures)
      .set("skipped", skipped)
      .set("deadline_flags", deadline_flags)
      .set("quarantines", quarantines)
      .set("io_retries", io_retries);
}

void install_drain_handler() {
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // keep in-flight writes restartable
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool drain_requested() { return g_drain != 0; }

void request_drain() { g_drain = 1; }

void reset_drain() { g_drain = 0; }

}  // namespace ihw::sweep

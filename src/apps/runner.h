#pragma once
// Glue between an application run and the power-quality framework: takes the
// performance counters collected during a SimFloat run and produces the
// GPUWattch-like baseline breakdown plus the Fig. 12 system savings for a
// given IHW configuration.
#include "gpu/context.h"
#include "gpu/wattch.h"
#include "power/syspower.h"

namespace ihw::apps {

struct GpuRunReport {
  gpu::PerfCounters counters;
  gpu::PowerBreakdown breakdown;   // precise-hardware power breakdown (Fig. 2)
  power::SystemSavings savings;    // Fig. 12 estimate under `config`
  ihw::IhwConfig config;
};

/// Analyzes one kernel's counters under an IHW configuration.
GpuRunReport analyze_gpu_run(const gpu::PerfCounters& counters,
                             const ihw::IhwConfig& config,
                             const gpu::GpuPowerParams& params = {},
                             const gpu::GpuConfig& machine = {});

/// Convenience: runs `body` inside a fresh FpContext with `config` installed
/// and returns the collected counters.
template <typename Body>
gpu::PerfCounters run_with_config(const ihw::IhwConfig& config, Body&& body) {
  gpu::FpContext ctx(config);
  gpu::ScopedContext scope(ctx);
  body();
  return ctx.counters();
}

/// Result of a guarded run: performance counters plus the fault/guard
/// observability counters (injected faults, guard trips, degradations,
/// retried epochs) merged in shard order.
struct GuardedRunResult {
  gpu::PerfCounters perf;
  fault::FaultCounters faults;
};

/// As run_with_config, for configurations carrying a FaultConfig /
/// GuardPolicy: returns the FaultCounters alongside the perf counters, both
/// merged in shard order from every parallel region `body` runs. The guard's
/// block-granular retry-in-precise mode (GuardPolicy::retry_epoch) takes
/// effect here with no app changes -- tripped blocks re-execute on the
/// precise path inside the launch. The worker count is the process default
/// (pin it around the call with runtime::ScopedThreads); the result is the
/// same at any count. Sweep points call it inside a
/// runtime::parallel_tasks_capture task, where nested parallel regions run
/// inline.
template <typename Body>
GuardedRunResult run_guarded(const ihw::IhwConfig& config, Body&& body) {
  gpu::FpContext ctx(config);
  gpu::ScopedContext scope(ctx);
  body();
  return {ctx.counters(), ctx.fault_counters()};
}

}  // namespace ihw::apps

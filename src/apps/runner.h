#pragma once
// Glue between an application run and the power-quality framework: takes the
// performance counters collected during a SimFloat run and produces the
// GPUWattch-like baseline breakdown plus the Fig. 12 system savings for a
// given IHW configuration.
#include "gpu/context.h"
#include "gpu/wattch.h"
#include "power/syspower.h"
#include "runtime/parallel.h"

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

/// As run_with_config, but pins the parallel runtime's worker count for the
/// duration of `body`: threads == 1 forces the exact serial path, 0 keeps
/// the process default (--threads / hardware concurrency). Counters from all
/// workers arrive merged in deterministic shard order, so the returned
/// PerfCounters are identical to a serial run.
template <typename Body>
gpu::PerfCounters run_with_config_parallel(const ihw::IhwConfig& config,
                                           int threads, Body&& body) {
  runtime::ScopedThreads scoped(threads > 0 ? threads
                                            : runtime::default_threads());
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

/// As run_with_config_parallel, for configurations carrying a FaultConfig /
/// GuardPolicy: returns the merged FaultCounters alongside the perf
/// counters. The guard's block-granular retry-in-precise mode
/// (GuardPolicy::retry_epoch) takes effect here with no app changes --
/// tripped blocks re-execute on the precise path inside the launch.
template <typename Body>
GuardedRunResult run_guarded_parallel(const ihw::IhwConfig& config,
                                      int threads, Body&& body) {
  runtime::ScopedThreads scoped(threads > 0 ? threads
                                            : runtime::default_threads());
  gpu::FpContext ctx(config);
  gpu::ScopedContext scope(ctx);
  body();
  return {ctx.counters(), ctx.fault_counters()};
}

/// As run_guarded_parallel without pinning the process-wide worker count --
/// the variant sweep points use. ScopedThreads mutates a process global, so
/// the pinning overloads must not run concurrently; this one is safe inside
/// a runtime::parallel_tasks_capture task (the sweep grid driver), where
/// nested parallel regions on pool workers degrade to inline serial
/// execution and the result stays bit-identical.
template <typename Body>
GuardedRunResult run_guarded(const ihw::IhwConfig& config, Body&& body) {
  gpu::FpContext ctx(config);
  gpu::ScopedContext scope(ctx);
  body();
  return {ctx.counters(), ctx.fault_counters()};
}

}  // namespace ihw::apps

#include "runtime/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/args.h"
#include "runtime/thread_pool.h"

namespace ihw::runtime {
namespace {

std::atomic<int> g_default_threads{0};  // 0 = hardware_threads()

// Set while a shard body runs, so nested parallel regions degrade to inline
// serial execution instead of blocking a pool worker on the pool.
thread_local bool t_in_shard = false;

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_threads() {
  const int n = g_default_threads.load(std::memory_order_relaxed);
  return n <= 0 ? hardware_threads() : n;
}

void set_default_threads(int n) {
  g_default_threads.store(n <= 0 ? 0 : n, std::memory_order_relaxed);
}

int configure_threads_from_args(const common::Args& args) {
  try {
    set_default_threads(args.threads());
  } catch (const common::ArgError& e) {
    // Every bench funnels --threads through here; fail with the parser's
    // message (it names the flag) instead of an unhandled-exception abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  return default_threads();
}

std::vector<std::exception_ptr> parallel_tasks_capture(
    std::size_t n, const std::function<void(std::size_t)>& task, int threads) {
  // Slot i is written only by the worker that ran task i, so no lock is
  // needed; the run_sharded join publishes every slot to the caller.
  std::vector<std::exception_ptr> errors(n);
  auto captured = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::atomic<std::size_t> next{0};
  detail::run_sharded(detail::resolve_shards(threads, n), [&](int) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      captured(i);
  });
  return errors;
}

namespace detail {

int resolve_shards(int threads, std::uint64_t work) {
  if (work == 0) return 1;
  std::uint64_t n =
      static_cast<std::uint64_t>(threads <= 0 ? default_threads() : threads);
  if (n > work) n = work;
  return n == 0 ? 1 : static_cast<int>(n);
}

void run_sharded(int shards, const std::function<void(int)>& body) {
  gpu::FpContext* caller = gpu::FpContext::current();

  if (shards <= 1 || t_in_shard) {
    for (int s = 0; s < shards; ++s) body(s);
    return;
  }

  // Per-shard context clones; merged into the caller's context below, in
  // shard order, so the merge result never depends on completion order.
  std::vector<std::unique_ptr<gpu::FpContext>> shard_ctx(
      static_cast<std::size_t>(shards));

  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    int remaining = 0;
    std::exception_ptr error;
  } sync;
  sync.remaining = shards - 1;

  auto run_one = [&](int s) {
    t_in_shard = true;
    try {
      if (caller != nullptr) {
        auto& ctx = shard_ctx[static_cast<std::size_t>(s)];
        ctx = std::make_unique<gpu::FpContext>(*caller,
                                               gpu::FpContext::ShardClone{});
        gpu::ScopedContext scope(*ctx);
        body(s);
      } else {
        body(s);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(sync.mu);
      if (!sync.error) sync.error = std::current_exception();
    }
    t_in_shard = false;
  };

  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(shards - 1);
  for (int s = 1; s < shards; ++s) {
    pool.submit([&, s] {
      run_one(s);
      std::lock_guard<std::mutex> lock(sync.mu);
      if (--sync.remaining == 0) sync.cv.notify_one();
    });
  }
  run_one(0);  // the caller takes the first shard itself
  {
    std::unique_lock<std::mutex> lock(sync.mu);
    sync.cv.wait(lock, [&] { return sync.remaining == 0; });
  }

  if (caller != nullptr) {
    // Shard-order merge of both counter families: performance counters and
    // fault/guard observability counters stay bit-identical to serial.
    for (int s = 0; s < shards; ++s) {
      const auto& ctx = shard_ctx[static_cast<std::size_t>(s)];
      if (ctx) {
        caller->counters() += ctx->counters();
        caller->guarded().merge_counters(ctx->guarded());
      }
    }
  }
  if (sync.error) std::rethrow_exception(sync.error);
}

}  // namespace detail
}  // namespace ihw::runtime

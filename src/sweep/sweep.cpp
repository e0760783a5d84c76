#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "runtime/parallel.h"

namespace ihw::sweep {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Soft-deadline watchdog over the cold points of one grid: workers publish
// their start time, a monitor thread periodically flags (and diagnoses on
// stderr) evaluations that have run past the deadline, and workers flag
// their own overruns at completion so a finished-late point is reported
// even if the monitor never sampled it mid-flight. The deadline is soft:
// nothing is cancelled.
class Watchdog {
 public:
  Watchdog(std::size_t n, double deadline_s)
      : deadline_ns_(static_cast<std::int64_t>(deadline_s * 1e9)),
        start_ns_(n),
        flagged_(n) {
    if (deadline_ns_ <= 0 || n == 0) return;
    const auto poll = std::chrono::nanoseconds(
        std::clamp<std::int64_t>(deadline_ns_ / 4, 1'000'000, 1'000'000'000));
    monitor_ = std::thread([this, poll] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        cv_.wait_for(lock, poll);
        scan();
      }
    });
  }

  ~Watchdog() {
    if (monitor_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_one();
      monitor_.join();
    }
  }

  void begin(std::size_t k) {
    if (deadline_ns_ > 0)
      start_ns_[k].store(now_ns(), std::memory_order_relaxed);
  }

  void end(std::size_t k) {
    if (deadline_ns_ <= 0) return;
    const std::int64_t t0 = start_ns_[k].load(std::memory_order_relaxed);
    start_ns_[k].store(0, std::memory_order_relaxed);
    if (t0 > 0 && now_ns() - t0 > deadline_ns_) flag(k, /*running=*/false);
  }

  bool flagged(std::size_t k) const {
    return flagged_[k].load(std::memory_order_relaxed) != 0;
  }

 private:
  void scan() {
    const std::int64_t now = now_ns();
    for (std::size_t k = 0; k < start_ns_.size(); ++k) {
      const std::int64_t t0 = start_ns_[k].load(std::memory_order_relaxed);
      if (t0 > 0 && now - t0 > deadline_ns_) flag(k, /*running=*/true);
    }
  }

  void flag(std::size_t k, bool running) {
    if (flagged_[k].exchange(1, std::memory_order_relaxed) != 0) return;
    std::fprintf(stderr,
                 "[sweep] cold point %zu exceeded its soft deadline of "
                 "%.3f s%s\n",
                 k, static_cast<double>(deadline_ns_) * 1e-9,
                 running ? " (still running)" : "");
  }

  const std::int64_t deadline_ns_;
  std::vector<std::atomic<std::int64_t>> start_ns_;  // 0 = idle/done
  std::vector<std::atomic<unsigned char>> flagged_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread monitor_;
};

}  // namespace

std::string GridOutcome::error_message(std::size_t i) const {
  if (i >= errors.size() || !errors[i]) return {};
  try {
    std::rethrow_exception(errors[i]);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

GridOutcome run_grid(const std::vector<GridPoint>& points, EvalCache* cache,
                     const FailPolicy& policy, int threads) {
  const std::size_t n = points.size();
  GridOutcome out;
  out.records.resize(n);
  out.cache_hit.assign(n, 0);
  out.status.assign(n, PointStatus::Evaluated);
  out.errors.assign(n, nullptr);
  out.deadline_flagged.assign(n, 0);
  out.health.points = n;

  const std::uint64_t quarantines0 = cache ? cache->quarantines() : 0;
  const std::uint64_t io_retries0 = cache ? cache->io_retries() : 0;

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::unordered_map<std::uint64_t, std::size_t> first;  // fp -> owner index
  std::vector<std::size_t> copy_from(n, kNone);
  std::vector<std::size_t> cold;  // owner points with no cached record
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, fresh] = first.emplace(points[i].fp, i);
    if (!fresh) {
      copy_from[i] = it->second;
      continue;
    }
    if (cache != nullptr) {
      if (auto rec = cache->lookup(points[i].fp)) {
        out.records[i] = std::move(*rec);
        out.cache_hit[i] = 1;
        out.status[i] = PointStatus::CacheHit;
        continue;
      }
    }
    cold.push_back(i);
  }

  {
    Watchdog watchdog(cold.size(), policy.soft_deadline_s);
    // Each completed evaluation stores immediately from its worker, so an
    // interrupted run checkpoints every finished point. Per-fingerprint
    // record files make the write *schedule* irrelevant to what a later run
    // reads back.
    const auto errors = runtime::parallel_tasks_capture(
        cold.size(),
        [&](std::size_t k) {
          const std::size_t i = cold[k];
          if (drain_requested()) {
            out.status[i] = PointStatus::Skipped;
            return;
          }
          watchdog.begin(k);
          out.records[i] = points[i].eval();
          watchdog.end(k);
          if (cache != nullptr) cache->store(points[i].fp, out.records[i]);
        },
        threads);
    for (std::size_t k = 0; k < cold.size(); ++k) {
      const std::size_t i = cold[k];
      if (errors[k]) {
        out.status[i] = PointStatus::Failed;
        out.errors[i] = errors[k];
        out.records[i] = EvalRecord();  // drop any partial result
      }
      if (watchdog.flagged(k)) out.deadline_flagged[i] = 1;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (copy_from[i] == kNone) continue;
    const std::size_t o = copy_from[i];
    out.records[i] = out.records[o];
    out.cache_hit[i] = out.cache_hit[o];
    out.status[i] = out.status[o];
    out.errors[i] = out.errors[o];
    out.deadline_flagged[i] = out.deadline_flagged[o];
  }

  for (std::size_t i = 0; i < n; ++i) {
    switch (out.status[i]) {
      case PointStatus::CacheHit: ++out.health.cache_hits; break;
      case PointStatus::Evaluated: ++out.health.evaluated; break;
      case PointStatus::Failed: ++out.health.failures; break;
      case PointStatus::Skipped: ++out.health.skipped; break;
    }
    if (out.deadline_flagged[i]) ++out.health.deadline_flags;
  }
  if (cache != nullptr) {
    out.health.quarantines = cache->quarantines() - quarantines0;
    out.health.io_retries = cache->io_retries() - io_retries0;
  }

  if (!policy.isolate && policy.fail_fast) {
    // Deterministic fail-fast: the first failure in point order, regardless
    // of which worker hit it first.
    for (std::size_t i = 0; i < n; ++i)
      if (out.errors[i]) std::rethrow_exception(out.errors[i]);
  }
  return out;
}

GridOutcome run_grid(const std::vector<GridPoint>& points, EvalCache* cache,
                     int threads) {
  return run_grid(points, cache, FailPolicy{}, threads);
}

std::uint64_t char_fingerprint(const CharPoint& p, bool is64) {
  Fingerprint fp(is64 ? "char64" : "char32");
  fp.mix_int(static_cast<int>(p.kind));
  fp.mix_int(p.param);
  fp.mix_u64(p.samples);
  return fp.digest();
}

namespace {

std::vector<error::CharResult> characterize_grid(
    const std::vector<CharPoint>& points, EvalCache* cache, bool is64,
    std::vector<char>* hits, HealthReport* health) {
  const std::size_t n = points.size();
  std::vector<error::CharResult> out(n);
  std::vector<char> hit(n, 0);

  const std::uint64_t quarantines0 = cache ? cache->quarantines() : 0;
  const std::uint64_t io_retries0 = cache ? cache->io_retries() : 0;

  // Cache pass; the misses are then grouped by sample budget so every group
  // runs as one shared-stream characterization (error/characterize.cpp
  // run_many shares the operand stream and the exact references).
  std::vector<std::uint64_t> fps(n, 0);
  std::vector<std::size_t> miss;
  for (std::size_t i = 0; i < n; ++i) {
    fps[i] = char_fingerprint(points[i], is64);
    if (cache != nullptr) {
      if (auto rec = cache->lookup(fps[i]); rec && rec->has_char) {
        out[i] = std::move(rec->chr);
        hit[i] = 1;
        continue;
      }
    }
    miss.push_back(i);
  }

  std::size_t evaluated = 0, skipped = 0;
  std::vector<char> grouped(miss.size(), 0);
  for (std::size_t j = 0; j < miss.size(); ++j) {
    if (grouped[j]) continue;
    const std::uint64_t samples = points[miss[j]].samples;
    std::vector<std::size_t> group;  // point indices sharing this budget
    for (std::size_t k = j; k < miss.size(); ++k) {
      if (grouped[k] || points[miss[k]].samples != samples) continue;
      grouped[k] = 1;
      group.push_back(miss[k]);
    }
    // Graceful drain at group granularity: a shared-stream pass that has
    // started runs to completion (and is checkpointed below); the remaining
    // groups are skipped so the run can exit and resume.
    if (drain_requested()) {
      skipped += group.size();
      continue;
    }
    std::vector<error::CharRequest> reqs;
    reqs.reserve(group.size());
    for (const std::size_t i : group)
      reqs.push_back({points[i].kind, points[i].param});
    std::vector<error::CharResult> res =
        is64 ? error::characterize64_many(reqs, samples)
             : error::characterize32_many(reqs, samples);
    for (std::size_t k = 0; k < group.size(); ++k)
      out[group[k]] = std::move(res[k]);
    evaluated += group.size();
    // Checkpoint the finished group immediately: a later kill loses at most
    // the in-flight group, and a resumed run looks everything stored here
    // up on disk.
    if (cache != nullptr) {
      for (const std::size_t i : group) {
        EvalRecord rec;
        rec.has_char = true;
        rec.chr = out[i];
        cache->store(fps[i], rec);
      }
    }
  }

  if (health != nullptr) {
    health->points += n;
    health->cache_hits += n - miss.size();
    health->evaluated += evaluated;
    health->skipped += skipped;
    if (cache != nullptr) {
      health->quarantines += cache->quarantines() - quarantines0;
      health->io_retries += cache->io_retries() - io_retries0;
    }
  }
  if (hits != nullptr) *hits = std::move(hit);
  return out;
}

}  // namespace

std::vector<error::CharResult> characterize_grid32(
    const std::vector<CharPoint>& points, EvalCache* cache,
    std::vector<char>* hits, HealthReport* health) {
  return characterize_grid(points, cache, /*is64=*/false, hits, health);
}

std::vector<error::CharResult> characterize_grid64(
    const std::vector<CharPoint>& points, EvalCache* cache,
    std::vector<char>* hits, HealthReport* health) {
  return characterize_grid(points, cache, /*is64=*/true, hits, health);
}

}  // namespace ihw::sweep

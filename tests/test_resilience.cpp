// Tests for the sweep resilience layer (DESIGN.md §12): record checksums
// and quarantine, the crash-safe journal and --resume replay, torn-write
// safety of concurrent stores, FailPolicy isolation vs deterministic
// fail-fast, the sweep benches' exit codes, graceful drain, the
// soft-deadline watchdog, and per-task exception capture in the runtime.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/sweep_flags.h"
#include "runtime/parallel.h"
#include "sweep/bench_run.h"
#include "sweep/cache.h"
#include "sweep/health.h"
#include "sweep/journal.h"
#include "sweep/json.h"
#include "sweep/sweep.h"

namespace ihw::sweep {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

EvalRecord sample_record(double salt = 0.0) {
  EvalRecord rec;
  rec.set_metric("quality", 0.123456789 + salt);
  rec.set_metric("mae", 1e-7 * (1.0 + salt));
  rec.perf.counts[0] = 1000;
  rec.perf.counts[1] = 2000;
  rec.faults.injected[0] = 7;
  return rec;
}

void expect_record_identical(const EvalRecord& a, const EvalRecord& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].first, b.metrics[i].first);
    EXPECT_EQ(bits(a.metrics[i].second), bits(b.metrics[i].second));
  }
  EXPECT_EQ(a.perf.counts, b.perf.counts);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.has_char, b.has_char);
}

std::string write_record_text() { return EvalCache::serialize(42, sample_record()); }

// A guard so a test that requests a drain cannot leak the flag into later
// tests (the flag is process-global, like the signal it models).
struct DrainGuard {
  ~DrainGuard() { reset_drain(); }
};

// ----------------------------------------------------------------- checksum

TEST(RecordChecksum, RoundTripsIntact) {
  const std::string text = write_record_text();
  EvalRecord back;
  ASSERT_TRUE(EvalCache::deserialize(text, 42, &back));
  expect_record_identical(sample_record(), back);
}

TEST(RecordChecksum, EveryTruncationRejectedOrEquivalent) {
  // Any prefix that loses payload or checksum bytes must be rejected; the
  // one benign truncation (dropping the trailing newline after the checksum
  // line) may parse, but then must yield the identical record.
  const std::string text = write_record_text();
  for (std::size_t len = 0; len < text.size(); ++len) {
    EvalRecord out;
    if (EvalCache::deserialize(text.substr(0, len), 42, &out)) {
      EXPECT_EQ(len, text.size() - 1)
          << "truncation to " << len << " bytes accepted";
      expect_record_identical(sample_record(), out);
    }
  }
}

TEST(RecordChecksum, FuzzedMutationsNeverYieldWrongRecord) {
  // Seeded fuzz over three corruption families: single bit flips, random
  // byte stomps, and line swaps (a key-reordering editor or a buggy sync
  // tool). The contract is not "always reject" -- a mutation confined to
  // trailing whitespace can be benign -- but "never crash and never return
  // a record that differs from the original".
  const std::string text = write_record_text();
  const EvalRecord ref = sample_record();
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mut = text;
    switch (rng() % 3) {
      case 0: {  // single bit flip
        const std::size_t pos = rng() % mut.size();
        mut[pos] = static_cast<char>(mut[pos] ^ (1u << (rng() % 8)));
        break;
      }
      case 1: {  // stomp a short random range
        const std::size_t pos = rng() % mut.size();
        const std::size_t len = 1 + rng() % 8;
        for (std::size_t j = pos; j < mut.size() && j < pos + len; ++j)
          mut[j] = static_cast<char>(rng() & 0xff);
        break;
      }
      default: {  // swap two whole lines
        std::vector<std::string> lines;
        std::size_t start = 0;
        while (start < mut.size()) {
          std::size_t nl = mut.find('\n', start);
          if (nl == std::string::npos) nl = mut.size() - 1;
          lines.push_back(mut.substr(start, nl - start + 1));
          start = nl + 1;
        }
        if (lines.size() < 2) continue;
        const std::size_t a = rng() % lines.size();
        const std::size_t b = rng() % lines.size();
        std::swap(lines[a], lines[b]);
        mut.clear();
        for (const auto& l : lines) mut += l;
        if (mut == text) continue;
        break;
      }
    }
    EvalRecord out;
    if (EvalCache::deserialize(mut, 42, &out)) {
      // Accepted: must be byte-for-byte the original record.
      expect_record_identical(ref, out);
    }
  }
}

TEST(RecordChecksum, WrongFingerprintRejected) {
  EvalRecord out;
  EXPECT_FALSE(EvalCache::deserialize(write_record_text(), 43, &out));
}

// --------------------------------------------------------------- quarantine

TEST(Quarantine, CorruptDiskRecordIsQuarantinedAndReevaluated) {
  const std::string dir = testing::TempDir() + "ihw_resil_quar";
  fs::remove_all(dir);
  const std::uint64_t fp = 0xabcdef12345678ull;
  std::string rec_path;
  {
    EvalCache cache(dir);
    cache.store(fp, sample_record());
    for (const auto& e : fs::recursive_directory_iterator(dir))
      if (e.is_regular_file() && e.path().extension() == ".rec")
        rec_path = e.path().string();
  }
  ASSERT_FALSE(rec_path.empty());
  {
    // Flip one payload byte in place.
    std::fstream f(rec_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('~');
  }
  EvalCache fresh(dir);
  EXPECT_FALSE(fresh.lookup(fp).has_value());  // rejected, not misread
  EXPECT_EQ(fresh.quarantines(), 1u);
  EXPECT_FALSE(fs::exists(rec_path));  // moved out of the cache tree
  EXPECT_FALSE(fs::is_empty(dir + "/quarantine"));
  // The slot is reusable: a re-evaluation stores and round-trips again.
  fresh.store(fp, sample_record());
  EvalCache again(dir);
  EXPECT_TRUE(again.lookup(fp).has_value());
  fs::remove_all(dir);
}

TEST(Quarantine, ConcurrentStoresLeaveNoTornFiles) {
  // Two caches (standing in for two processes) hammer the same fingerprint
  // set; distinct tmp names mean no writer can rename another writer's
  // half-written file into place.
  const std::string dir = testing::TempDir() + "ihw_resil_torn";
  fs::remove_all(dir);
  {
    EvalCache a(dir), b(dir);
    std::thread ta([&] {
      for (int i = 0; i < 50; ++i) a.store(7, sample_record(0.0));
    });
    std::thread tb([&] {
      for (int i = 0; i < 50; ++i) b.store(7, sample_record(0.0));
    });
    ta.join();
    tb.join();
  }
  for (const auto& e : fs::recursive_directory_iterator(dir))
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << "stale tmp file: " << e.path();
  EvalCache fresh(dir);
  const auto back = fresh.lookup(7);
  ASSERT_TRUE(back.has_value());
  expect_record_identical(sample_record(0.0), *back);
  EXPECT_EQ(fresh.quarantines(), 0u);
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ journal

TEST(JournalTest, ReplayRestoresEveryRecordBitExactly) {
  const std::string dir = testing::TempDir() + "ihw_resil_journal";
  fs::remove_all(dir);
  {
    EvalCache cache(dir);
    cache.attach_journal("t", /*resume=*/false);
    for (int i = 0; i < 3; ++i)
      cache.store(100 + i, sample_record(i * 0.5));
  }
  // Delete the per-fingerprint record files: the journal alone must be able
  // to restore the run.
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".rec")
      fs::remove(e.path());
  EvalCache resumed(dir);
  resumed.attach_journal("t", /*resume=*/true);
  EXPECT_EQ(resumed.journal_replayed(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto back = resumed.lookup(100 + i);
    ASSERT_TRUE(back.has_value()) << "fp " << 100 + i;
    expect_record_identical(sample_record(i * 0.5), *back);
  }
  fs::remove_all(dir);
}

TEST(JournalTest, TruncatedTailIsDroppedNotPropagated) {
  const std::string dir = testing::TempDir() + "ihw_resil_jtail";
  fs::remove_all(dir);
  std::string jpath;
  {
    EvalCache cache(dir);
    cache.attach_journal("t", false);
    cache.store(1, sample_record(1.0));
    cache.store(2, sample_record(2.0));
    jpath = cache.journal()->path();
  }
  // Chop the last 40 bytes: entry 2's frame is now torn.
  const auto size = fs::file_size(jpath);
  fs::resize_file(jpath, size - 40);
  EvalCache resumed(dir);
  // Remove the .rec files so lookups can only be served by the journal.
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".rec")
      fs::remove(e.path());
  resumed.attach_journal("t", true);
  EXPECT_EQ(resumed.journal_replayed(), 1u);
  EXPECT_TRUE(resumed.lookup(1).has_value());
  EXPECT_FALSE(resumed.lookup(2).has_value());
  // Appending after a torn replay preserves the valid prefix.
  resumed.store(3, sample_record(3.0));
  EvalCache again(dir);
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".rec")
      fs::remove(e.path());
  again.attach_journal("t", true);
  EXPECT_EQ(again.journal_replayed(), 2u);
  fs::remove_all(dir);
}

TEST(JournalTest, NonResumeAttachDiscardsStaleJournal) {
  const std::string dir = testing::TempDir() + "ihw_resil_jfresh";
  fs::remove_all(dir);
  {
    EvalCache cache(dir);
    cache.attach_journal("t", false);
    cache.store(9, sample_record());
  }
  EvalCache fresh(dir);
  fresh.attach_journal("t", /*resume=*/false);
  EXPECT_EQ(fresh.journal_replayed(), 0u);
  EXPECT_FALSE(fs::exists(fresh.journal()->path()));
  fs::remove_all(dir);
}

TEST(JournalTest, ResumeSweepsStaleTmpFiles) {
  const std::string dir = testing::TempDir() + "ihw_resil_jtmp";
  fs::remove_all(dir);
  {
    EvalCache cache(dir);
    cache.attach_journal("t", false);
    cache.store(1, sample_record());
  }
  // Simulate a writer killed between tmp write and rename.
  const std::string stale = dir + "/" + std::string(kSchemaTag) +
                            "/deadbeef.rec.tmp.999.0";
  std::ofstream(stale) << "half a record";
  EvalCache resumed(dir);
  resumed.attach_journal("t", true);
  EXPECT_FALSE(fs::exists(stale));
  fs::remove_all(dir);
}

TEST(JournalTest, SecondAttachThrowsLogicError) {
  const std::string dir = testing::TempDir() + "ihw_resil_jreatt";
  fs::remove_all(dir);
  EvalCache cache(dir);
  cache.attach_journal("first", false);
  Journal* before = cache.journal();
  EXPECT_THROW(cache.attach_journal("first", false), std::logic_error);
  EXPECT_THROW(cache.attach_journal("first", true), std::logic_error);
  EXPECT_THROW(cache.attach_journal("second", false), std::logic_error);
  // The original journal survives the rejected re-attaches.
  EXPECT_EQ(cache.journal(), before);
  EXPECT_EQ(cache.journal_replayed(), 0u);
  cache.store(5, sample_record(0.25));
  EvalCache resumed(dir);
  resumed.attach_journal("first", true);
  EXPECT_EQ(resumed.journal_replayed(), 1u);
  const auto rec = resumed.lookup(5);
  ASSERT_TRUE(rec.has_value());
  expect_record_identical(*rec, sample_record(0.25));
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- run_grid

std::vector<GridPoint> mixed_points(int n, int failing) {
  std::vector<GridPoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<std::uint64_t>(500 + i), [i, failing] {
                     if (i == failing) throw std::runtime_error("boom");
                     return sample_record(i);
                   }});
  }
  return pts;
}

TEST(FailPolicyTest, IsolateCompletesGridWithOneFailure) {
  FailPolicy policy;
  policy.isolate = true;
  policy.fail_fast = false;
  const auto out = run_grid(mixed_points(6, 2), nullptr, policy, 3);
  ASSERT_EQ(out.status.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    if (i == 2) {
      EXPECT_EQ(out.status[i], PointStatus::Failed);
      EXPECT_NE(out.error_message(i).find("boom"), std::string::npos);
      EXPECT_TRUE(out.records[i].metrics.empty());  // no partial result
    } else {
      EXPECT_EQ(out.status[i], PointStatus::Evaluated);
      expect_record_identical(sample_record(i), out.records[i]);
    }
  }
  EXPECT_EQ(out.health.failures, 1u);
  EXPECT_EQ(out.health.evaluated, 5u);
  EXPECT_EQ(out.health.points, 6u);
}

TEST(FailPolicyTest, FailFastRethrowsFirstFailureInPointOrder) {
  std::vector<GridPoint> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({static_cast<std::uint64_t>(600 + i), [i]() -> EvalRecord {
                     if (i == 3) throw std::runtime_error("fail-three");
                     if (i == 6) throw std::runtime_error("fail-six");
                     return sample_record(i);
                   }});
  }
  try {
    run_grid(pts, nullptr, FailPolicy{}, 4);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // Deterministic regardless of which worker faulted first.
    EXPECT_STREQ(e.what(), "fail-three");
  }
}

TEST(FailPolicyTest, IsolatedFailureStillCachesHealthyPoints) {
  const std::string dir = testing::TempDir() + "ihw_resil_isocache";
  fs::remove_all(dir);
  EvalCache cache(dir);
  FailPolicy policy;
  policy.isolate = true;
  policy.fail_fast = false;
  run_grid(mixed_points(4, 1), &cache, policy, 2);
  EXPECT_EQ(cache.stores(), 3u);  // the failed point must not be cached
  EXPECT_FALSE(cache.lookup(501).has_value());
  EXPECT_TRUE(cache.lookup(502).has_value());
  fs::remove_all(dir);
}

// The exit-code contract every sweep bench returns through BenchRun::finish:
// a point that failed under --isolate exits kPointFailureExitCode (3), a
// clean grid exits 0.
TEST(BenchRunTest, IsolatedFailureExitsPointFailureCode) {
  common::SweepFlags flags;
  flags.isolate = true;
  const FailPolicy policy = make_fail_policy(flags);

  BenchRun failed("bench_run_failed", flags);
  const auto bad = run_grid(mixed_points(4, 1), &failed.cache(), policy, 2);
  EXPECT_FALSE(failed.drained(bad.health));
  EXPECT_EQ(failed.finish(bad.health, "", Json::array()),
            kPointFailureExitCode);
  EXPECT_EQ(kPointFailureExitCode, 3);

  BenchRun clean("bench_run_clean", flags);
  const auto good = run_grid(mixed_points(4, -1), &clean.cache(), policy, 2);
  EXPECT_EQ(clean.finish(good.health, "", Json::array()), 0);
}

TEST(DrainTest, RequestedDrainSkipsUnstartedPoints) {
  DrainGuard guard;
  request_drain();
  const auto out = run_grid(mixed_points(5, -1), nullptr,
                            FailPolicy{}, 2);
  ASSERT_EQ(out.status.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(out.status[i], PointStatus::Skipped);
  EXPECT_EQ(out.health.skipped, 5u);
  EXPECT_EQ(out.health.evaluated, 0u);
}

TEST(DrainTest, FlagIsStickyUntilReset) {
  DrainGuard guard;
  EXPECT_FALSE(drain_requested());
  request_drain();
  EXPECT_TRUE(drain_requested());
  reset_drain();
  EXPECT_FALSE(drain_requested());
}

TEST(WatchdogTest, SlowPointIsFlaggedFastPointCompletes) {
  FailPolicy policy;
  policy.soft_deadline_s = 0.01;
  std::vector<GridPoint> pts;
  pts.push_back({1, [] {
                   std::this_thread::sleep_for(std::chrono::milliseconds(60));
                   return sample_record(0);
                 }});
  pts.push_back({2, [] { return sample_record(1); }});
  const auto out = run_grid(pts, nullptr, policy, 2);
  EXPECT_EQ(out.deadline_flagged[0], 1);  // flagged, but never cancelled
  EXPECT_EQ(out.status[0], PointStatus::Evaluated);
  expect_record_identical(sample_record(0), out.records[0]);
  EXPECT_GE(out.health.deadline_flags, 1u);
}

TEST(HealthReportTest, SummaryAndJsonCarryAllCounters) {
  HealthReport h;
  h.points = 9;
  h.cache_hits = 4;
  h.evaluated = 3;
  h.failures = 1;
  h.skipped = 1;
  h.journal_replayed = 4;
  const std::string s = h.summary();
  EXPECT_NE(s.find("points=9"), std::string::npos);
  EXPECT_NE(s.find("failures=1"), std::string::npos);
  EXPECT_NE(s.find("journal_replayed=4"), std::string::npos);
  const std::string j = h.to_json().dump();
  EXPECT_NE(j.find("\"failures\""), std::string::npos);
  EXPECT_NE(j.find("\"journal_replayed\""), std::string::npos);
}

// ------------------------------------------------------------ runtime layer

TEST(ParallelCapture, ExceptionSlotsMatchThrowingTasks) {
  const std::size_t n = 64;
  const auto errors = runtime::parallel_tasks_capture(
      n,
      [](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error("odd " + std::to_string(i));
      },
      4);
  ASSERT_EQ(errors.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 1) {
      ASSERT_TRUE(errors[i] != nullptr) << i;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "odd " + std::to_string(i));
      }
    } else {
      EXPECT_TRUE(errors[i] == nullptr) << i;
    }
  }
}

TEST(ParallelCapture, SiblingsRunToCompletionDespiteFailure) {
  std::atomic<int> completed{0};
  const auto errors = runtime::parallel_tasks_capture(
      16,
      [&](std::size_t i) {
        if (i == 0) throw std::runtime_error("first");
        completed.fetch_add(1);
      },
      4);
  EXPECT_EQ(completed.load(), 15);
  EXPECT_EQ(std::count(errors.begin(), errors.end(), nullptr), 15);
}

}  // namespace
}  // namespace ihw::sweep

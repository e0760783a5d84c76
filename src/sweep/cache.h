#pragma once
// Thread-safe evaluation cache for the sweep engine (DESIGN.md §11-§12):
// maps a config-point fingerprint to everything a bench row needs -- named
// quality metrics, the merged PerfCounters and FaultCounters, and (for
// characterization points) the full ErrorStats/ErrorPmf accumulator state.
// Records are bit-exact: a warm lookup reproduces the cold evaluation's
// output byte for byte.
//
// Two layers plus an optional journal:
//  - in-process: a mutex-protected map, shared by every sweep in the run;
//  - on disk (optional, --cache-dir): one content-addressed text file per
//    fingerprint under <dir>/<schema-tag>/, so repeated bench invocations
//    skip whole configurations. The schema tag namespaces the directory --
//    bumping kSchemaTag orphans old records instead of misreading them.
//    Doubles are serialized as C99 hex-floats, so the round trip is exact.
//  - Self-healing: every record carries a whole-payload checksum, verified
//    on load. A corrupt or truncated file is quarantined to
//    <dir>/quarantine/ with a stderr diagnostic and the point is
//    transparently re-evaluated; transient store failures retry with
//    bounded backoff instead of silently dropping the record.
//  - Journal (attach_journal): completed points additionally checkpoint to
//    a crash-safe sequential journal so a killed sweep resumes with
//    --resume (sweep/journal.h, DESIGN.md §12).
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "error/characterize.h"
#include "fault/counters.h"
#include "gpu/counters.h"
#include "sweep/fingerprint.h"

namespace ihw::sweep {

class Journal;

/// Everything one evaluated config point produced.
struct EvalRecord {
  /// Named scalar results in a fixed, caller-chosen order ("mae", "ssim",
  /// "sys_saving", ...). Stored bit-exactly.
  std::vector<std::pair<std::string, double>> metrics;
  gpu::PerfCounters perf{};
  fault::FaultCounters faults{};
  /// Characterization payload (quasi-MC sweeps); valid when has_char.
  bool has_char = false;
  error::CharResult chr;

  double metric(const std::string& name, double def = 0.0) const {
    for (const auto& [k, v] : metrics)
      if (k == name) return v;
    return def;
  }
  void set_metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

class EvalCache {
 public:
  /// In-process cache only. (Defined out of line: the defaulted body needs
  /// the complete Journal type for member cleanup.)
  EvalCache();
  /// With a disk layer rooted at `dir` (created on first store). An empty
  /// dir disables the disk layer. `schema` defaults to kSchemaTag; tests
  /// override it to simulate a schema bump.
  explicit EvalCache(std::string dir, std::string schema = kSchemaTag);
  ~EvalCache();

  /// Attaches the crash-safe journal named `name` (one per bench) under the
  /// disk root. With `resume`, valid journal entries are replayed into the
  /// in-memory layer first (counted by journal_replayed()) and stale tmp
  /// files left by a killed writer are swept; without it the journal starts
  /// fresh. No-op when the cache has no disk layer. Resume assumes a single
  /// writer per cache directory.
  /// Attaching a second journal to the same cache (under any name) is a
  /// programming error and throws std::logic_error.
  void attach_journal(const std::string& name, bool resume);

  /// Returns the record for `fp`, consulting memory then disk.
  std::optional<EvalRecord> lookup(std::uint64_t fp);
  /// Inserts (memory always, disk and journal when enabled). Overwrites an
  /// existing record with the same fingerprint. Thread-safe.
  void store(std::uint64_t fp, const EvalRecord& rec);

  // Observability (cold vs warm and resilience reporting in the benches).
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Subset of hits() served from the disk layer.
  std::uint64_t disk_hits() const { return disk_hits_.load(); }
  std::uint64_t stores() const { return stores_.load(); }
  /// Corrupt/truncated disk records moved to <dir>/quarantine/.
  std::uint64_t quarantines() const { return quarantines_.load(); }
  /// Transient disk-store attempts that were retried.
  std::uint64_t io_retries() const { return io_retries_.load(); }
  /// Entries restored from the journal by attach_journal(..., resume=true).
  std::uint64_t journal_replayed() const { return journal_replayed_.load(); }
  const std::string& dir() const { return dir_; }
  /// The attached journal, or nullptr.
  Journal* journal() const { return journal_.get(); }

  /// Serialized record text (exposed for tests and tooling). The payload
  /// ends with an "end" line followed by a checksum line over every
  /// preceding byte; deserialize rejects any record whose checksum is
  /// missing or does not match.
  static std::string serialize(std::uint64_t fp, const EvalRecord& rec);
  static bool deserialize(const std::string& text, std::uint64_t expect_fp,
                          EvalRecord* out);

 private:
  std::string path_for(std::uint64_t fp) const;
  bool load_from_disk(std::uint64_t fp, EvalRecord* out);
  void store_to_disk(std::uint64_t fp, const EvalRecord& rec);
  void quarantine(std::uint64_t fp);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, EvalRecord> map_;
  std::string dir_;
  std::string schema_{kSchemaTag};
  std::string journal_name_;
  std::unique_ptr<Journal> journal_;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, disk_hits_{0}, stores_{0};
  std::atomic<std::uint64_t> quarantines_{0}, io_retries_{0},
      journal_replayed_{0};
};

}  // namespace ihw::sweep

#include "sweep/cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace ihw::sweep {
namespace {

namespace fs = std::filesystem;

// C99 hex-float: exact IEEE-754 round trip, locale-independent, and strtod
// parses the "nan"/"inf" spellings printf emits for non-finite values.
std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_double(std::istringstream& is, double* out) {
  std::string tok;
  if (!(is >> tok)) return false;
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return end != nullptr && *end == '\0';
}

template <std::size_t N>
void put_u64s(std::ostringstream& os, const char* key,
              const std::array<std::uint64_t, N>& a) {
  os << key << ' ' << N;
  for (auto v : a) os << ' ' << v;
  os << '\n';
}

template <std::size_t N>
bool get_u64s(std::istringstream& is, std::array<std::uint64_t, N>* a) {
  std::size_t n = 0;
  if (!(is >> n) || n != N) return false;
  for (auto& v : *a)
    if (!(is >> v)) return false;
  return true;
}

// FNV-1a 64 over the record payload; the same stable, locale-free hash
// family the fingerprints use.
std::uint64_t payload_checksum(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Per-process unique tmp suffixes: two processes (or threads) sweeping into
// the same --cache-dir must never share a tmp name, or their interleaved
// writes could be renamed as one torn record.
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> seq{0};
  char buf[64];
  std::snprintf(buf, sizeof buf, ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(seq.fetch_add(1)));
  return buf;
}

// Writes `data` to a new file at `path` and fsyncs it, so the bytes are
// durable before the caller renames the file into place.
bool write_synced(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  const bool synced = ::fsync(fd) == 0;
  return (::close(fd) == 0) && synced;
}

// Best-effort fsync of a directory, so a rename into it is durable.
void sync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

EvalCache::EvalCache(std::string dir, std::string schema)
    : dir_(std::move(dir)), schema_(std::move(schema)) {}

void EvalCache::attach_journal(const std::string& /*name*/, bool resume) {
  if (dir_.empty() || !resume) return;
  // Single-writer resume: a tmp file was never renamed into place, so its
  // writer died before the record became durable and it is garbage.
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / schema_, ec)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      fs::remove(entry.path(), ec);
  }
}

std::optional<EvalRecord> EvalCache::lookup(std::uint64_t fp) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(fp);
    if (it != map_.end()) {
      hits_.fetch_add(1);
      return it->second;
    }
  }
  if (!dir_.empty()) {
    EvalRecord rec;
    if (load_from_disk(fp, &rec)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        map_.emplace(fp, rec);
      }
      hits_.fetch_add(1);
      disk_hits_.fetch_add(1);
      return rec;
    }
  }
  misses_.fetch_add(1);
  return std::nullopt;
}

void EvalCache::store(std::uint64_t fp, const EvalRecord& rec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    map_[fp] = rec;
  }
  if (!dir_.empty()) store_to_disk(fp, rec);
  stores_.fetch_add(1);
}

std::string EvalCache::path_for(std::uint64_t fp) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.rec",
                static_cast<unsigned long long>(fp));
  return dir_ + "/" + schema_ + "/" + name;
}

bool EvalCache::load_from_disk(std::uint64_t fp, EvalRecord* out) {
  std::string text;
  {
    std::ifstream in(path_for(fp), std::ios::binary);
    if (!in) return false;  // plain miss: no file
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  if (deserialize(text, fp, out)) return true;
  // The file exists but is corrupt or truncated: quarantine it so the point
  // transparently re-evaluates (and re-stores a good record) instead of
  // poisoning every future run.
  quarantine(fp);
  return false;
}

void EvalCache::quarantine(std::uint64_t fp) {
  namespace fs = std::filesystem;
  const std::string path = path_for(fp);
  std::error_code ec;
  const fs::path qdir = fs::path(dir_) / "quarantine";
  fs::create_directories(qdir, ec);
  const fs::path dest =
      qdir / (schema_ + "-" + fs::path(path).filename().string());
  fs::rename(path, dest, ec);
  if (ec) fs::remove(path, ec);  // fallback: at least drop the bad record
  quarantines_.fetch_add(1);
  std::fprintf(stderr,
               "[sweep] quarantined corrupt cache record %s -> %s "
               "(re-evaluating)\n",
               path.c_str(), dest.string().c_str());
}

void EvalCache::store_to_disk(std::uint64_t fp, const EvalRecord& rec) {
  std::error_code ec;
  const std::string path = path_for(fp);
  const fs::path parent = fs::path(path).parent_path();
  const std::string text = serialize(fp, rec);
  // Write, fsync, rename, fsync the directory: concurrent readers never
  // observe a torn record, and a stored record survives SIGKILL or power
  // loss, which is what lets a killed sweep resume from the store. Bounded
  // retry with backoff so a transient failure (momentary ENOSPC, EINTR
  // storm) does not silently drop the record.
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      io_retries_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
    fs::create_directories(parent, ec);
    if (ec) continue;
    const std::string tmp = path + unique_tmp_suffix();
    if (!write_synced(tmp, text)) {
      fs::remove(tmp, ec);
      continue;
    }
    fs::rename(tmp, path, ec);
    if (!ec) {
      sync_dir(parent);
      return;
    }
    fs::remove(tmp, ec);
  }
  std::fprintf(stderr,
               "[sweep] failed to persist cache record %s after retries "
               "(in-memory layer still holds it)\n",
               path.c_str());
}

std::string EvalCache::serialize(std::uint64_t fp, const EvalRecord& rec) {
  std::ostringstream os;
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp));
  os << "ihw-eval-record 2\n";
  os << "fp " << hex << '\n';
  os << "metrics " << rec.metrics.size() << '\n';
  for (const auto& [name, value] : rec.metrics)
    os << "metric " << name << ' ' << fmt_double(value) << '\n';
  put_u64s(os, "perf", rec.perf.counts);
  put_u64s(os, "faults-injected", rec.faults.injected);
  put_u64s(os, "faults-trips", rec.faults.guard_trips);
  put_u64s(os, "faults-degraded", rec.faults.degraded_epochs);
  put_u64s(os, "faults-rundeg", rec.faults.run_degradations);
  os << "faults-retried " << rec.faults.retried_epochs << '\n';
  os << "faults-nonfinite " << rec.faults.nonfinite_flags << '\n';
  os << "char " << (rec.has_char ? 1 : 0) << '\n';
  if (rec.has_char) {
    os << "char-label " << rec.chr.label << '\n';
    const auto s = rec.chr.stats.state();
    os << "char-stats " << s.samples << ' ' << s.errors << ' '
       << s.rel_samples << ' ' << fmt_double(s.max_rel) << ' '
       << fmt_double(s.sum_rel) << ' ' << fmt_double(s.sum_abs) << ' '
       << fmt_double(s.max_abs) << '\n';
    const auto p = rec.chr.pmf.state();
    os << "char-pmf " << p.min_bucket << ' ' << p.max_bucket << ' '
       << p.samples << ' ' << p.zero_error << ' ' << p.counts.size();
    for (auto c : p.counts) os << ' ' << c;
    os << '\n';
  }
  os << "end\n";
  // Whole-payload checksum, last line: verified on load so a truncated or
  // bit-flipped record is rejected (and quarantined) instead of parsed.
  std::string text = os.str();
  char sum[32];
  std::snprintf(sum, sizeof sum, "checksum %016llx\n",
                static_cast<unsigned long long>(
                    payload_checksum(text.data(), text.size())));
  text += sum;
  return text;
}

bool EvalCache::deserialize(const std::string& text, std::uint64_t expect_fp,
                            EvalRecord* out) {
  // Validate the checksum before parsing anything: the payload is every
  // byte up to and including the "end" line, the checksum line follows.
  const std::string end_marker = "\nend\n";
  const std::size_t end_pos = text.rfind(end_marker);
  if (end_pos == std::string::npos) return false;
  const std::size_t payload_len = end_pos + end_marker.size();
  std::istringstream tail(text.substr(payload_len));
  std::string key, hex;
  if (!(tail >> key >> hex) || key != "checksum") return false;
  char* hend = nullptr;
  const std::uint64_t want = std::strtoull(hex.c_str(), &hend, 16);
  if (hend == hex.c_str() || *hend != '\0') return false;
  if (payload_checksum(text.data(), payload_len) != want) return false;

  std::istringstream lines(text.substr(0, payload_len));
  std::string line;
  EvalRecord rec;
  bool saw_end = false;

  if (!std::getline(lines, line) || line != "ihw-eval-record 2") return false;
  while (std::getline(lines, line)) {
    std::istringstream is(line);
    if (!(is >> key)) continue;
    if (key == "fp") {
      std::string fp_hex;
      if (!(is >> fp_hex)) return false;
      if (std::strtoull(fp_hex.c_str(), nullptr, 16) != expect_fp)
        return false;
    } else if (key == "metric") {
      std::string name;
      double v = 0.0;
      if (!(is >> name) || !parse_double(is, &v)) return false;
      rec.metrics.emplace_back(name, v);
    } else if (key == "perf") {
      if (!get_u64s(is, &rec.perf.counts)) return false;
    } else if (key == "faults-injected") {
      if (!get_u64s(is, &rec.faults.injected)) return false;
    } else if (key == "faults-trips") {
      if (!get_u64s(is, &rec.faults.guard_trips)) return false;
    } else if (key == "faults-degraded") {
      if (!get_u64s(is, &rec.faults.degraded_epochs)) return false;
    } else if (key == "faults-rundeg") {
      if (!get_u64s(is, &rec.faults.run_degradations)) return false;
    } else if (key == "faults-retried") {
      if (!(is >> rec.faults.retried_epochs)) return false;
    } else if (key == "faults-nonfinite") {
      if (!(is >> rec.faults.nonfinite_flags)) return false;
    } else if (key == "char") {
      int flag = 0;
      if (!(is >> flag)) return false;
      rec.has_char = flag != 0;
    } else if (key == "char-label") {
      std::string rest;
      std::getline(is, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      rec.chr.label = rest;
    } else if (key == "char-stats") {
      error::ErrorStats::State s;
      if (!(is >> s.samples >> s.errors >> s.rel_samples)) return false;
      if (!parse_double(is, &s.max_rel) || !parse_double(is, &s.sum_rel) ||
          !parse_double(is, &s.sum_abs) || !parse_double(is, &s.max_abs))
        return false;
      rec.chr.stats = error::ErrorStats::from_state(s);
    } else if (key == "char-pmf") {
      error::ErrorPmf::State p;
      std::size_t n = 0;
      if (!(is >> p.min_bucket >> p.max_bucket >> p.samples >> p.zero_error >>
            n))
        return false;
      p.counts.resize(n);
      for (auto& c : p.counts)
        if (!(is >> c)) return false;
      rec.chr.pmf = error::ErrorPmf::from_state(p);
    } else if (key == "end") {
      saw_end = true;
      break;
    }
    // Unknown keys are skipped: forward-compatible within one schema tag.
  }
  if (!saw_end) return false;
  *out = std::move(rec);
  return true;
}

}  // namespace ihw::sweep

#pragma once
// Minimal `--key=value` / `--flag` argument parser shared by the bench and
// example binaries. Numeric accessors validate strictly: trailing garbage
// ("--threads=8x"), non-numeric values ("--threads=abc"), and out-of-range
// magnitudes raise ArgError naming the offending flag, instead of silently
// parsing to 0.
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ihw::common {

/// Raised on malformed or out-of-range flag values; what() names the flag.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  /// Strictly-parsed decimal integer; throws ArgError on garbage/overflow.
  long long get_int(const std::string& key, long long def) const;
  /// Strictly-parsed double; throws ArgError on garbage/overflow.
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// The shared `--threads=N` flag of every bench binary: worker count for
  /// the parallel runtime. 0 (or absent) means hardware concurrency; 1 is
  /// the exact serial fallback. Results are bit-identical for any value.
  /// Throws ArgError when negative or absurd (> 1e6).
  int threads() const;

  /// The shared `--resume` flag of the sweep benches: continue a killed run
  /// from the records under --cache-dir, first removing the stale tmp files
  /// its writer left (DESIGN.md §12). Meaningless without --cache-dir.
  bool resume() const { return get_bool("resume", false); }

  /// The shared `--deadline=S` flag of the sweep benches: per-point soft
  /// watchdog deadline in seconds, 0 (or absent) disables the watchdog.
  /// Throws ArgError when negative or non-numeric.
  double deadline() const;

  /// Positional (non `--`) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace ihw::common

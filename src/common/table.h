#pragma once
// Aligned console table and CSV emission used by the benchmark harnesses to
// print paper tables/figure series.
#include <string>
#include <vector>

namespace ihw::common {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format with a fixed precision. Used by every bench binary so the paper
/// tables all render with one code path.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls append cells to it.
  Table& row();
  Table& add(std::string cell);
  Table& add(double v, int precision = 4);
  Table& add(long long v);
  Table& add(int v) { return add(static_cast<long long>(v)); }
  Table& add(std::size_t v) { return add(static_cast<long long>(v)); }

  /// Renders with padded columns, a header underline, and a trailing newline.
  std::string str() const;
  /// Renders as RFC-4180-ish CSV (no quoting of embedded commas needed here).
  std::string csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the point.
std::string fmt(double v, int precision = 4);
/// Formats a ratio as a percentage string, e.g. 0.3206 -> "32.06%".
std::string pct(double ratio, int precision = 2);

}  // namespace ihw::common

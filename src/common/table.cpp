#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ihw::common {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double v, int precision) { return add(fmt(v, precision)); }

Table& Table::add(long long v) { return add(std::to_string(v)); }

std::string Table::str() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

std::string Table::csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) os << ',';
      os << r[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string pct(double ratio, int precision) {
  return fmt(ratio * 100.0, precision) + "%";
}

}  // namespace ihw::common

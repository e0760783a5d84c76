#include "sweep/json.h"

#include <cmath>
#include <cstdio>

namespace ihw::sweep {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

Json Json::object() {
  Json j;
  j.kind_ = Kind::Obj;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Arr;
  return j;
}

Json::Json(bool v) : kind_(Kind::Bool), b_(v) {}
Json::Json(int v) : kind_(Kind::Int), i_(v) {}
Json::Json(double v) : kind_(Kind::Double), d_(v) {}
Json::Json(std::int64_t v) : kind_(Kind::Int), i_(v) {}
Json::Json(std::uint64_t v) : kind_(Kind::Uint), u_(v) {}
Json::Json(const char* v) : kind_(Kind::Str), s_(v) {}
Json::Json(std::string v) : kind_(Kind::Str), s_(std::move(v)) {}

Json& Json::set(std::string key, Json value) {
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  items_.push_back(std::move(value));
  return *this;
}

void Json::write(std::string& out, int indent, int depth) const {
  char buf[40];
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += b_ ? "true" : "false";
      break;
    case Kind::Int:
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(i_));
      out += buf;
      break;
    case Kind::Uint:
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(u_));
      out += buf;
      break;
    case Kind::Double:
      // JSON has no NaN/Inf literals; emit null like every pragmatic writer.
      if (!std::isfinite(d_)) {
        out += "null";
        break;
      }
      std::snprintf(buf, sizeof buf, "%.17g", d_);
      out += buf;
      break;
    case Kind::Str:
      append_escaped(out, s_);
      break;
    case Kind::Arr:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        append_newline(out, indent, depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      if (!items_.empty()) append_newline(out, indent, depth);
      out += ']';
      break;
    case Kind::Obj:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        append_newline(out, indent, depth + 1);
        append_escaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) append_newline(out, indent, depth);
      out += '}';
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

bool Json::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = dump(2) + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ihw::sweep

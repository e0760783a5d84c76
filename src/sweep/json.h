#pragma once
// Minimal JSON value builder for the --json bench outputs: objects with
// insertion-ordered keys, arrays, strings, bools, and numbers. Doubles are
// printed with %.17g (round-trippable); unsigned 64-bit values print as
// exact integers.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ihw::sweep {

class Json {
 public:
  Json() = default;  // null
  static Json object();
  static Json array();
  Json(bool v);
  Json(int v);
  Json(double v);
  Json(std::int64_t v);
  Json(std::uint64_t v);
  Json(const char* v);
  Json(std::string v);

  /// Object member (insertion order preserved; duplicate keys appended).
  Json& set(std::string key, Json value);
  /// Array element.
  Json& push(Json value);

  /// Serialized text; indent > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

  /// Writes dump(2) plus a trailing newline to `path`; false on I/O error.
  bool write_file(const std::string& path) const;

  /// Object members in document order.
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

 private:
  enum class Kind { Null, Bool, Int, Uint, Double, Str, Arr, Obj };
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool b_ = false;
  std::int64_t i_ = 0;
  std::uint64_t u_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace ihw::sweep

#pragma once
/// \file json.hpp
/// Minimal JSON support for the observability layer: a streaming writer
/// (used by the metrics, trace, and run-report emitters) and a small
/// recursive-descent parser (used by tests and tooling to round-trip the
/// emitted files). No external dependencies; doubles are written with
/// enough digits to round-trip, and non-finite values become null.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "pil/util/error.hpp"

namespace pil::obs {

/// `s` as a double-quoted JSON string literal (quotes included).
std::string json_escape(std::string_view s);

/// A double as a JSON number token ("null" for NaN / infinity).
std::string json_number(double v);

/// Streaming JSON writer. A small state stack inserts commas and newlines
/// automatically:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.kv("schema", "pil.run_report.v3");
///   w.key("methods");
///   w.begin_array();
///   ...
///   w.end_array();
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, bool pretty = true)
      : os_(os), pretty_(pretty) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(long long v);
  void value(int v) { value(static_cast<long long>(v)); }
  void value(unsigned long long v);
  void value(bool v);
  void null();
  /// Splice a pre-serialized JSON fragment in value position verbatim.
  void raw(std::string_view json);

  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  void before_value();
  void newline_indent();

  std::ostream& os_;
  bool pretty_;
  // One frame per open container: whether it is an array, and whether a
  // first element has been written (so the next one needs a comma).
  struct Frame {
    bool array = false;
    bool has_element = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
};

/// Parsed JSON value. Objects keep their members in file order (a vector of
/// pairs rather than a map, which also sidesteps incomplete-type limits).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> items;                            // arrays
  std::vector<std::pair<std::string, JsonValue>> members;  // objects

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(std::string_view k) const;
  /// Member lookup that throws pil::Error when absent or not an object.
  const JsonValue& at(std::string_view k) const;
};

/// Parse a complete JSON document; throws pil::Error on malformed input or
/// trailing garbage.
JsonValue parse_json(std::string_view text);

// Checked accessors for decoders: each returns `v` as the named type or
// throws pil::Error "<field>: expected ...", `field` being the document
// path an error should quote ("config.seed").

/// Integers travel as JSON numbers, which the parser reads as doubles, so
/// one is exact only within +-(2^53 - 1), RFC 8259's interoperable range:
/// 2^53 + 1 arrives as 2^53, indistinguishable from a real 2^53.
inline constexpr std::uint64_t kMaxJsonInt = (std::uint64_t{1} << 53) - 1;

double json_num(const JsonValue& v, std::string_view field);
bool json_bool(const JsonValue& v, std::string_view field);
const std::string& json_str(const JsonValue& v, std::string_view field);
/// An array's items.
const std::vector<JsonValue>& json_array(const JsonValue& v,
                                         std::string_view field);
/// `v` itself, once checked to be an object.
const JsonValue& json_object(const JsonValue& v, std::string_view field);

/// `v` as an integer of type T: an integral number within both T and
/// +-kMaxJsonInt -- anything else was rounded in transit or would be cast
/// out of range.
template <typename T>
T json_int(const JsonValue& v, std::string_view field) {
  using Limits = std::numeric_limits<T>;
  const double lo = std::max(-static_cast<double>(kMaxJsonInt),
                             static_cast<double>(Limits::min()));
  const double hi = std::min(static_cast<double>(kMaxJsonInt),
                             static_cast<double>(Limits::max()));
  if (!v.is_number() || !(v.num_v >= lo && v.num_v <= hi) ||
      v.num_v != std::trunc(v.num_v))
    throw Error(std::string(field) + ": expected an integer in [" +
                std::to_string(static_cast<long long>(lo)) + ", " +
                std::to_string(static_cast<long long>(hi)) + "]");
  return static_cast<T>(v.num_v);
}

}  // namespace pil::obs

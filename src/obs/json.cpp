#include "pil/obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"

namespace pil::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passes through untouched
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) { return format_double_exact(v); }

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  Frame& f = stack_.back();
  if (f.key_pending) {
    f.key_pending = false;
    return;  // "key": <value> -- no separator, no indent
  }
  if (f.has_element) os_ << ',';
  f.has_element = true;
  newline_indent();
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({false, false, false});
}

void JsonWriter::end_object() {
  const bool had = !stack_.empty() && stack_.back().has_element;
  stack_.pop_back();
  if (had) newline_indent();
  os_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({true, false, false});
}

void JsonWriter::end_array() {
  const bool had = !stack_.empty() && stack_.back().has_element;
  stack_.pop_back();
  if (had) newline_indent();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  Frame& f = stack_.back();
  if (f.has_element) os_ << ',';
  f.has_element = true;
  newline_indent();
  os_ << json_escape(k) << (pretty_ ? ": " : ":");
  f.key_pending = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  os_ << json_escape(s);
}

void JsonWriter::value(double v) {
  before_value();
  os_ << json_number(v);
}

void JsonWriter::value(long long v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(unsigned long long v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  os_ << "null";
}

void JsonWriter::raw(std::string_view json) {
  before_value();
  os_ << json;
}

const JsonValue* JsonValue::find(std::string_view k) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, v] : members)
    if (name == k) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view k) const {
  const JsonValue* v = find(k);
  PIL_REQUIRE(v != nullptr, "JSON member '" + std::string(k) + "' missing");
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    PIL_REQUIRE(pos_ == s_.size(), "JSON: trailing characters at offset " +
                                       std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    PIL_REQUIRE(pos_ < s_.size(), "JSON: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    PIL_REQUIRE(pos_ < s_.size() && s_[pos_] == c,
                std::string("JSON: expected '") + c + "' at offset " +
                    std::to_string(pos_));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str_v = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.bool_v = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  /// Four hex digits of a \uXXXX escape (the "\u" already consumed).
  unsigned parse_hex4() {
    PIL_REQUIRE(pos_ + 4 <= s_.size(), "JSON: truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else throw Error("JSON: bad \\u escape digit");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      PIL_REQUIRE(pos_ < s_.size(), "JSON: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      PIL_REQUIRE(pos_ < s_.size(), "JSON: unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          // RFC 8259: code points outside the BMP arrive as a surrogate
          // pair of \u escapes. Pair them into one code point; reject
          // unpaired or reversed surrogates (they have no UTF-8 form).
          if (code >= 0xD800 && code <= 0xDBFF) {
            PIL_REQUIRE(pos_ + 2 <= s_.size() && s_[pos_] == '\\' &&
                            s_[pos_ + 1] == 'u',
                        "JSON: unpaired high surrogate");
            pos_ += 2;
            const unsigned lo = parse_hex4();
            PIL_REQUIRE(lo >= 0xDC00 && lo <= 0xDFFF,
                        "JSON: invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            PIL_REQUIRE(!(code >= 0xDC00 && code <= 0xDFFF),
                        "JSON: unpaired low surrogate");
          }
          // Encode the code point as UTF-8 (1..4 bytes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          throw Error(std::string("JSON: bad escape '\\") + e + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
            s_[pos_] == '+'))
      ++pos_;
    PIL_REQUIRE(pos_ > start, "JSON: expected a value at offset " +
                                  std::to_string(start));
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    PIL_REQUIRE(end == tok.c_str() + tok.size(),
                "JSON: malformed number '" + tok + "'");
    JsonValue out;
    out.type = JsonValue::Type::kNumber;
    out.num_v = v;
    return out;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser p(text);
  return p.parse_document();
}

double json_num(const JsonValue& v, std::string_view field) {
  if (!v.is_number()) throw Error(std::string(field) + ": expected a number");
  return v.num_v;
}

bool json_bool(const JsonValue& v, std::string_view field) {
  if (v.type != JsonValue::Type::kBool)
    throw Error(std::string(field) + ": expected a bool");
  return v.bool_v;
}

const std::string& json_str(const JsonValue& v, std::string_view field) {
  if (!v.is_string()) throw Error(std::string(field) + ": expected a string");
  return v.str_v;
}

const std::vector<JsonValue>& json_array(const JsonValue& v,
                                         std::string_view field) {
  if (!v.is_array()) throw Error(std::string(field) + ": expected an array");
  return v.items;
}

const JsonValue& json_object(const JsonValue& v, std::string_view field) {
  if (!v.is_object())
    throw Error(std::string(field) + ": expected an object");
  return v;
}

}  // namespace pil::obs

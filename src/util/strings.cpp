#include "pil/util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "pil/util/error.hpp"

namespace pil {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_on(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s, std::string_view context) {
  s = trim(s);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    std::ostringstream os;
    os << "malformed number '" << s << "'";
    if (!context.empty()) os << " in " << context;
    throw Error(os.str());
  }
  return v;
}

long long parse_int(std::string_view s, std::string_view context) {
  s = trim(s);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    std::ostringstream os;
    os << "malformed integer '" << s << "'";
    if (!context.empty()) os << " in " << context;
    throw Error(os.str());
  }
  return v;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string format_double_exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // %.17g round-trips every double; trim to %g when it is exact already.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  if (std::strtod(buf, nullptr) == v) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%g", v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_u64(std::string_view s, std::string_view context) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (s.empty() || s.size() > 16 || ec != std::errc{} ||
      ptr != s.data() + s.size())
    throw Error(std::string(context) + ": expected up to 16 hex digits");
  return v;
}

}  // namespace pil

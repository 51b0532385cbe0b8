#pragma once
/// \file cli.hpp
/// The one command-line parser behind the tools (pilfill, pilreq, pilserve,
/// piltop, pilstat): `--name` options from a fixed list, each a flag or
/// taking the next argument as its value; every other word is positional.

#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"

namespace pil::util {

/// A malformed command line; the tools exit 2 on it.
struct UsageError : Error {
  using Error::Error;
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  ///< a flag's value is "1"
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt) const {
    const auto it = options.find(name);
    return it == options.end() ? dflt : it->second;
  }
  /// The value of `name` as a T (parse_int for integers, else
  /// parse_double), or `dflt` when the option is absent.
  template <typename T>
  T num(const std::string& name, T dflt) const {
    const auto it = options.find(name);
    if (it == options.end()) return dflt;
    if constexpr (std::is_integral_v<T>)
      return static_cast<T>(parse_int(it->second, "--" + name));
    else
      return static_cast<T>(parse_double(it->second, "--" + name));
  }
};

/// Parse argv[first..argc). Throws UsageError naming an option in neither
/// `flags` nor `value_options`, or a value option with no value after it.
Args parse_cli(int argc, char** argv, int first,
               const std::set<std::string>& flags,
               const std::set<std::string>& value_options);

}  // namespace pil::util

#pragma once
/// \file strings.hpp
/// Small string utilities shared by the .pld layout reader and table writers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pil {

/// Split `s` on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view s);

/// Split `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> split_on(std::string_view s, char sep);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse a double/long; throws pil::Error with context on malformed input.
double parse_double(std::string_view s, std::string_view context = {});
long long parse_int(std::string_view s, std::string_view context = {});

/// printf-style formatting into std::string ("%.3f" etc.).
std::string format_double(double v, int precision);

/// Shortest decimal representation that parses back to exactly `v`
/// (non-finite values become "null"). The one double formatter for every
/// text format that must round-trip bit-exactly -- the obs JSON writer and
/// the .pld layout writer both emit through it, which is what lets a
/// layout or result survive serialize/parse cycles with zero drift.
std::string format_double_exact(double v);

/// FNV-1a 64 over `bytes`, continuing from `h`: the hash behind the
/// service's layout, model and placement fingerprints. Inline, because
/// placement_fingerprint feeds it 8 bytes at a time.
inline constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t h = kFnv1a64Offset) noexcept {
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ull;  // the 64-bit FNV prime
  }
  return h;
}

/// `v` as 16 lowercase hex digits -- how u64 hashes and ids travel in JSON.
std::string hex_u64(std::uint64_t v);
/// Inverse of hex_u64, accepting 1-16 hex digits of either case; throws
/// pil::Error naming `context` on anything else.
std::uint64_t parse_hex_u64(std::string_view s, std::string_view context);

}  // namespace pil

/// \file calibrate.cpp
/// The host-speed kernel (see calibrate.hpp). Built as a target of its own
/// with fixed options and no dependency on the library, so no change to
/// the library or its build flags changes the work it does.

#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace pilperf {

namespace {

constexpr int kN = 64;        // matrix order: 96 KiB for the three matrices
constexpr int kProducts = 4;  // matrix products per call
constexpr int kKeys = 20000;  // keys sorted per call

volatile double g_double_sink;
volatile std::uint32_t g_key_sink;

}  // namespace

double calibration_seconds() {
  static const std::array<std::vector<double>, 2> ab = [] {
    std::array<std::vector<double>, 2> m{std::vector<double>(kN * kN),
                                         std::vector<double>(kN * kN)};
    for (int i = 0; i < kN * kN; ++i) {
      m[0][static_cast<std::size_t>(i)] = (i % 17) * 0.1;
      m[1][static_cast<std::size_t>(i)] = (i % 13) * 0.2;
    }
    return m;
  }();
  const std::vector<double>& a = ab[0];
  const std::vector<double>& b = ab[1];
  std::vector<double> c(kN * kN);
  std::vector<std::uint32_t> keys(kKeys);

  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kProducts; ++rep)
    for (int i = 0; i < kN; ++i)
      for (int j = 0; j < kN; ++j) {
        double acc = 0.0;
        for (int k = 0; k < kN; ++k)
          acc += a[static_cast<std::size_t>(i * kN + k)] *
                 b[static_cast<std::size_t>(k * kN + j)];
        c[static_cast<std::size_t>(i * kN + j)] = acc + rep;
      }
  g_double_sink = c[5];
  std::uint64_t x = 3;
  for (std::uint32_t& key : keys) {  // splitmix64
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    key = static_cast<std::uint32_t>(z ^ (z >> 31));
  }
  std::sort(keys.begin(), keys.end());
  g_key_sink = keys[kKeys / 2];
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace pilperf

// Reference checks for the pil/util/kernels.hpp loops: each kernel against
// a brute-force model or its documented expression tree, bitwise wherever
// the kernel states an exact expression. The whole-flow lock on the
// placements the kernels feed is SimdFlow.GoldenSeedFingerprintsLocked /
// GoldenFingerprintsThreadInvariant (test_integration.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "pil/grid/density_map.hpp"
#include "pil/grid/dissection.hpp"
#include "pil/util/kernels.hpp"
#include "pil/util/rng.hpp"

namespace pil::util {
namespace {

std::vector<double> random_doubles(Rng& rng, std::size_t n, double lo,
                                   double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform_real(lo, hi);
  return v;
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// -------------------------------------------------------- window sums ----

/// Brute-force reference: the literal DensityMap::window_area double loop.
std::vector<double> brute_window_sums(const std::vector<double>& tile,
                                      int tiles_x, int tiles_y, int r) {
  const int wx_count = tiles_x - r + 1;
  const int wy_count = tiles_y - r + 1;
  std::vector<double> out(static_cast<std::size_t>(wx_count) * wy_count);
  for (int wy = 0; wy < wy_count; ++wy)
    for (int wx = 0; wx < wx_count; ++wx) {
      double sum = 0.0;
      for (int iy = wy; iy < wy + r; ++iy)
        for (int ix = wx; ix < wx + r; ++ix)
          sum += tile[static_cast<std::size_t>(iy) * tiles_x + ix];
      out[static_cast<std::size_t>(wy) * wx_count + wx] = sum;
    }
  return out;
}

TEST(SimdWindowSums, ScalarMatchesBruteForce) {
  Rng rng(11);
  for (const auto [tx, ty, r] : {std::tuple{8, 8, 2}, {9, 7, 3}, {5, 5, 5},
                                 {13, 4, 2}, {4, 13, 4}, {1, 1, 1}}) {
    const auto tile =
        random_doubles(rng, static_cast<std::size_t>(tx) * ty, 0.0, 50.0);
    const auto want = brute_window_sums(tile, tx, ty, r);
    std::vector<double> got(want.size(), -1.0);
    window_sums(tile.data(), tx, ty, r, got.data());
    ASSERT_TRUE(bits_equal(want.data(), got.data(), want.size()))
        << tx << "x" << ty << " r=" << r;
  }
}

TEST(SimdWindowSums, ClippedEdgeWindowsMatchBruteForce) {
  // Windows whose rects are clipped by the dissection boundary (right/top
  // edge of the die) still sum exactly the same r x r tile block --
  // clipping affects window *area*, never which tiles contribute.
  Rng rng(13);
  const int tx = 11, ty = 9, r = 3;
  const auto tile =
      random_doubles(rng, static_cast<std::size_t>(tx) * ty, 0.0, 100.0);
  const auto want = brute_window_sums(tile, tx, ty, r);
  const int wx_count = tx - r + 1;
  const int wy_count = ty - r + 1;
  std::vector<double> got(want.size(), -1.0);
  window_sums(tile.data(), tx, ty, r, got.data());
  // Spot the full edge rows/columns explicitly (bitwise).
  for (int wy = 0; wy < wy_count; ++wy) {
    const std::size_t i =
        static_cast<std::size_t>(wy) * wx_count + (wx_count - 1);
    EXPECT_EQ(want[i], got[i]) << "right edge wy=" << wy;
  }
  for (int wx = 0; wx < wx_count; ++wx) {
    const std::size_t i =
        static_cast<std::size_t>(wy_count - 1) * wx_count + wx;
    EXPECT_EQ(want[i], got[i]) << "top edge wx=" << wx;
  }
  ASSERT_TRUE(bits_equal(want.data(), got.data(), want.size()));
}

TEST(SimdWindowSums, DensityStatsClippedEdgeRegression) {
  // Whole-DensityMap leg of the same regression: a die whose width is not
  // a multiple of the window size leaves the rightmost/topmost windows
  // clipped (smaller area, higher density for the same feature area).
  // stats() must equal the brute-force window_area()/window_rect().area()
  // fold, bitwise.
  const geom::Rect die{0.0, 0.0, 50.0, 38.0};  // 50/16, 38/16 both ragged
  const grid::Dissection dis(die, 16.0, 2);
  grid::DensityMap map(dis);
  Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform_real(die.xlo, die.xhi - 1.0);
    const double y = rng.uniform_real(die.ylo, die.yhi - 1.0);
    map.add_rect(geom::Rect{x, y, x + rng.uniform_real(0.1, 1.0),
                            y + rng.uniform_real(0.1, 1.0)});
  }
  // Brute force in the exact stats() order: min/max over window
  // densities, mean as the index-ordered sum over all windows.
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  bool clipped_seen = false;
  for (int wy = 0; wy < dis.windows_y(); ++wy)
    for (int wx = 0; wx < dis.windows_x(); ++wx) {
      const double d = map.window_density(wx, wy);
      mn = std::min(mn, d);
      mx = std::max(mx, d);
      sum += d;
      if (dis.window_rect(wx, wy).area() <
          dis.window_rect(0, 0).area() - 1e-9)
        clipped_seen = true;
    }
  ASSERT_TRUE(clipped_seen) << "die size must clip some edge windows";
  const double mean = sum / (static_cast<double>(dis.windows_x()) *
                             dis.windows_y());
  const grid::DensityStats s = map.stats();
  EXPECT_EQ(s.min_density, mn);
  EXPECT_EQ(s.max_density, mx);
  EXPECT_EQ(s.mean_density, mean);
}

// -------------------------------------------------- elementwise kernels ----

TEST(SimdElementwise, MinMaxDifferentialAndReference) {
  Rng rng(23);
  for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100,
                              1023}) {
    const auto v = random_doubles(rng, n, 0.0, 1.0);  // density-like: >= 0
    const auto [it_mn, it_mx] = std::minmax_element(v.begin(), v.end());
    double mn = -1, mx = -1;
    min_max(v.data(), n, &mn, &mx);
    EXPECT_EQ(mn, *it_mn) << "n=" << n;
    EXPECT_EQ(mx, *it_mx) << "n=" << n;
  }
}

TEST(SimdElementwise, MinMaxSingleElement) {
  const double v = 0.25;
  double mn = 0, mx = 0;
  min_max(&v, 1, &mn, &mx);
  EXPECT_EQ(mn, 0.25);
  EXPECT_EQ(mx, 0.25);
}

TEST(SimdElementwise, EntryResMatchesManhattanFormula) {
  // One element, by hand: base + slope * (|ux-qx| + |uy-qy|), the
  // WirePiece::res_at expression tree.
  const double base = 3.5, slope = 0.25, ux = 1.0, uy = -2.0, qx = 4.0,
               qy = 2.5;
  const double want =
      base + slope * (std::fabs(ux - qx) + std::fabs(uy - qy));
  double got = 0;
  entry_res(&base, &slope, &ux, &uy, &qx, &qy, 1, &got);
  EXPECT_EQ(got, want);
}

TEST(SimdElementwise, ExpressionTreesBitExact) {
  // Each elementwise kernel against its documented expression tree,
  // written out here. On random inputs a reassociated or distributed
  // product or sum rounds differently on some element. Such a change can
  // leave every golden placement in place, so this test is what locks
  // the expressions themselves.
  Rng rng(24);
  const std::size_t n = 1000;
  const auto a = random_doubles(rng, n, -100.0, 100.0);
  const auto b = random_doubles(rng, n, 0.5, 100.0);
  const auto c = random_doubles(rng, n, -100.0, 100.0);
  const auto d = random_doubles(rng, n, -100.0, 100.0);
  const auto e = random_doubles(rng, n, -100.0, 100.0);
  const auto f = random_doubles(rng, n, -100.0, 100.0);
  const double s = rng.uniform_real(0.1, 10.0);
  std::vector<double> want(n), got(n);
  const auto expect_exact = [&](const char* kernel) {
    EXPECT_TRUE(bits_equal(want.data(), got.data(), n)) << kernel;
  };
  for (std::size_t i = 0; i < n; ++i) want[i] = a[i] / b[i];
  div2(a.data(), b.data(), n, got.data());
  expect_exact("div2");
  for (std::size_t i = 0; i < n; ++i) want[i] = a[i] + b[i];
  add2(a.data(), b.data(), n, got.data());
  expect_exact("add2");
  for (std::size_t i = 0; i < n; ++i)
    want[i] = a[i] + b[i] * (std::fabs(c[i] - d[i]) + std::fabs(e[i] - f[i]));
  entry_res(a.data(), b.data(), c.data(), e.data(), d.data(), f.data(), n,
            got.data());
  expect_exact("entry_res");
  for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * b[i]) + (c[i] * d[i]);
  weighted_pair(a.data(), b.data(), c.data(), d.data(), n, got.data());
  expect_exact("weighted_pair");
  for (std::size_t i = 0; i < n; ++i)
    want[i] = (((a[i] * b[i]) + (c[i] * d[i])) + e[i]) + f[i];
  exact_pair(a.data(), b.data(), c.data(), d.data(), e.data(), f.data(), n,
             got.data());
  expect_exact("exact_pair");
  for (std::size_t i = 0; i < n; ++i) want[i] = (a[i] * s) * b[i];
  scaled_scores(a.data(), b.data(), s, n, got.data());
  expect_exact("scaled_scores");
  for (std::size_t i = 0; i < n; ++i) want[i] = ((a[i] - c[i]) * s) * b[i];
  delta_scores(a.data(), c.data(), b.data(), s, n, got.data());
  expect_exact("delta_scores");
}

TEST(SimdElementwise, EmptyAndZeroInputs) {
  // n == 0 is a no-op for every elementwise kernel (canary survives), and
  // all-zero columns flow through to all-zero outputs.
  double canary = 42.0;
  div2(nullptr, nullptr, 0, &canary);
  add2(nullptr, nullptr, 0, &canary);
  scaled_scores(nullptr, nullptr, 1.0, 0, &canary);
  delta_scores(nullptr, nullptr, nullptr, 1.0, 0, &canary);
  entry_res(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, 0,
            &canary);
  weighted_pair(nullptr, nullptr, nullptr, nullptr, 0, &canary);
  exact_pair(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, 0,
             &canary);
  site_rows(0, 0, 0, 0, 0, 1.0, 0, nullptr);
  EXPECT_EQ(canary, 42.0);

  const std::vector<double> zeros(13, 0.0);
  std::vector<double> out(13, -1.0);
  scaled_scores(zeros.data(), zeros.data(), 0.3, zeros.size(), out.data());
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------- block kernels ----

TEST(SimdBlocks, BlockAnyAboveEdgeCases) {
  const std::vector<double> grid = {0.1, 0.2, 0.3, 0.4};
  // Empty blocks are false.
  EXPECT_FALSE(block_any_above(grid.data(), 2, 1, 0, 0, 1, 1.0, 0.0));
  EXPECT_FALSE(block_any_above(grid.data(), 2, 0, 1, 1, 0, 1.0, 0.0));
  // Strictly-above semantics: equality is not "above" (the MC targeter's
  // epsilon lives in the threshold, not the comparison).
  EXPECT_FALSE(block_any_above(grid.data(), 2, 0, 0, 0, 0, 0.0, 0.1));
  EXPECT_TRUE(block_any_above(grid.data(), 2, 0, 0, 0, 0, 0.01, 0.1));
}

TEST(SimdBlocks, BlockAddScalarTouchesOnlyTheBlock) {
  std::vector<double> grid(5 * 4, 1.0);
  block_add_scalar(grid.data(), 5, 1, 3, 1, 2, 0.5);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x) {
      const bool inside = x >= 1 && x <= 3 && y >= 1 && y <= 2;
      EXPECT_EQ(grid[static_cast<std::size_t>(y) * 5 + x],
                inside ? 1.5 : 1.0)
          << "(" << x << "," << y << ")";
    }
}

// ----------------------------------------------------- integer kernels ----

TEST(SimdInt, SiteRowsClampsToGrid) {
  // Sites below the die clamp to row 0; sites beyond the top clamp to
  // max_row; interior sites match the tile_at formula.
  const double pitch = 2.0, half = 0.5, die_ylo = 0.0, tile_um = 8.0;
  const int max_row = 3;  // rows end at 32 um; sites run past 48 um
  std::vector<std::int32_t> rows(40);
  site_rows(40, -30.0, pitch, half, die_ylo, tile_um, max_row, rows.data());
  for (int i = 0; i < 40; ++i) {
    const double cy = (-30.0 + i * pitch) + half;
    const int want = std::clamp(
        static_cast<int>(std::floor((cy - die_ylo) / tile_um)), 0, max_row);
    EXPECT_EQ(rows[i], want) << "i=" << i;
  }
  EXPECT_EQ(rows.front(), 0);        // far below the die
  EXPECT_EQ(rows.back(), max_row);   // beyond the top
}

}  // namespace
}  // namespace pil::util

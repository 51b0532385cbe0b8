// Tests for pil/grid: fixed r-dissection geometry and density maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "pil/density/fill_target.hpp"
#include "pil/fill/slack.hpp"
#include "pil/grid/density_map.hpp"
#include "pil/grid/dissection.hpp"
#include "pil/grid/smoothness.hpp"
#include "pil/rctree/rctree.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/util/rng.hpp"

namespace pil::grid {
namespace {

// ------------------------------------------------------------ dissection ----

TEST(Dissection, BasicCounts) {
  const Dissection d(geom::Rect{0, 0, 64, 64}, 32.0, 4);
  EXPECT_DOUBLE_EQ(d.tile_um(), 8.0);
  EXPECT_EQ(d.tiles_x(), 8);
  EXPECT_EQ(d.tiles_y(), 8);
  EXPECT_EQ(d.num_tiles(), 64);
  EXPECT_EQ(d.windows_x(), 5);  // 8 - 4 + 1
  EXPECT_EQ(d.num_windows(), 25);
}

TEST(Dissection, NonDivisibleDieClipsBoundaryTiles) {
  const Dissection d(geom::Rect{0, 0, 50, 50}, 20.0, 4);  // tile 5, 50/5=10
  EXPECT_EQ(d.tiles_x(), 10);
  const Dissection d2(geom::Rect{0, 0, 52, 52}, 20.0, 4);
  EXPECT_EQ(d2.tiles_x(), 11);
  const geom::Rect last = d2.tile_rect({10, 10});
  EXPECT_DOUBLE_EQ(last.xhi, 52.0);
  EXPECT_DOUBLE_EQ(last.width(), 2.0);
}

TEST(Dissection, TileFlatRoundTrip) {
  const Dissection d(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  for (int flat = 0; flat < d.num_tiles(); ++flat) {
    const TileIndex t = d.tile_unflat(flat);
    EXPECT_EQ(d.tile_flat(t), flat);
  }
  EXPECT_THROW(d.tile_flat({-1, 0}), Error);
  EXPECT_THROW(d.tile_unflat(d.num_tiles()), Error);
}

TEST(Dissection, TileAt) {
  const Dissection d(geom::Rect{0, 0, 64, 64}, 32.0, 4);  // tile 8
  EXPECT_EQ(d.tile_at({0, 0}), (TileIndex{0, 0}));
  EXPECT_EQ(d.tile_at({7.99, 0}), (TileIndex{0, 0}));
  EXPECT_EQ(d.tile_at({8.0, 0}), (TileIndex{1, 0}));
  EXPECT_EQ(d.tile_at({64, 64}), (TileIndex{7, 7}));  // max edge clamps
  EXPECT_THROW(d.tile_at({65, 0}), Error);
}

TEST(Dissection, TilesOverlapping) {
  const Dissection d(geom::Rect{0, 0, 64, 64}, 32.0, 4);
  TileIndex lo, hi;
  ASSERT_TRUE(d.tiles_overlapping(geom::Rect{4, 4, 20, 12}, lo, hi));
  EXPECT_EQ(lo, (TileIndex{0, 0}));
  EXPECT_EQ(hi, (TileIndex{2, 1}));
  // A rect ending exactly on a tile boundary does not include the next tile.
  ASSERT_TRUE(d.tiles_overlapping(geom::Rect{0, 0, 8, 8}, lo, hi));
  EXPECT_EQ(hi, (TileIndex{0, 0}));
  EXPECT_FALSE(d.tiles_overlapping(geom::Rect{100, 100, 110, 110}, lo, hi));
}

TEST(Dissection, WindowRect) {
  const Dissection d(geom::Rect{0, 0, 64, 64}, 32.0, 4);
  EXPECT_EQ(d.window_rect(0, 0), (geom::Rect{0, 0, 32, 32}));
  EXPECT_EQ(d.window_rect(4, 4), (geom::Rect{32, 32, 64, 64}));
  EXPECT_THROW(d.window_rect(5, 0), Error);
}

TEST(Dissection, RejectsBadParameters) {
  EXPECT_THROW(Dissection(geom::Rect{0, 0, 10, 10}, 0.0, 2), Error);
  EXPECT_THROW(Dissection(geom::Rect{0, 0, 10, 10}, 5.0, 0), Error);
  EXPECT_THROW(Dissection(geom::Rect{0, 0, 10, 10}, 20.0, 2), Error);
}

// ----------------------------------------------------------- density map ----

TEST(DensityMap, SingleRectSplitsAcrossTiles) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);  // tile 4
  DensityMap m(d);
  m.add_rect(geom::Rect{2, 2, 6, 6});  // 4x4 across 4 tiles, 4 um^2 each
  EXPECT_DOUBLE_EQ(m.tile_area({0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(m.tile_area({1, 0}), 4.0);
  EXPECT_DOUBLE_EQ(m.tile_area({0, 1}), 4.0);
  EXPECT_DOUBLE_EQ(m.tile_area({1, 1}), 4.0);
  EXPECT_DOUBLE_EQ(m.tile_area({2, 2}), 0.0);
}

TEST(DensityMap, WindowAreaSumsTiles) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 8, 8});
  EXPECT_DOUBLE_EQ(m.window_area(0, 0), 64.0);
  EXPECT_DOUBLE_EQ(m.window_density(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.window_density(2, 2), 0.0);
}

TEST(DensityMap, AddAreaDirect) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap m(d);
  m.add_area({1, 1}, 3.5);
  EXPECT_DOUBLE_EQ(m.tile_area({1, 1}), 3.5);
  EXPECT_THROW(m.add_area({0, 0}, -1.0), Error);
}

TEST(DensityMap, StatsMinMaxMean) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 4, 4});  // only tile (0,0)
  const DensityStats s = m.stats();
  EXPECT_DOUBLE_EQ(s.max_density, 16.0 / 64.0);
  EXPECT_DOUBLE_EQ(s.min_density, 0.0);
  EXPECT_DOUBLE_EQ(s.variation(), 0.25);
  EXPECT_GT(s.mean_density, 0.0);
}

TEST(DensityMap, LayerWiresMatchTotalArea) {
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection d(l.die(), 32.0, 4);
  DensityMap m(d);
  m.add_layer_metal(l, 0);
  double tiles_total = 0;
  for (int flat = 0; flat < d.num_tiles(); ++flat)
    tiles_total += m.tile_area_flat(flat);
  EXPECT_NEAR(tiles_total, l.total_wire_area(0), 1e-6);
}

// --------------------------------------------------- dissection sweeps ----

struct DisCase {
  double die;
  double window;
  int r;
};

class DissectionSweep : public ::testing::TestWithParam<DisCase> {};

TEST_P(DissectionSweep, TilesPartitionTheDie) {
  const auto [die_side, window, r] = GetParam();
  const Dissection d(geom::Rect{0, 0, die_side, die_side}, window, r);
  // Tiles cover the die exactly once: areas sum to the die area and
  // adjacent tiles never overlap.
  double area = 0;
  for (int flat = 0; flat < d.num_tiles(); ++flat)
    area += d.tile_rect(d.tile_unflat(flat)).area();
  EXPECT_NEAR(area, die_side * die_side, 1e-6);
  for (int iy = 0; iy < d.tiles_y(); ++iy)
    for (int ix = 0; ix + 1 < d.tiles_x(); ++ix)
      EXPECT_DOUBLE_EQ(d.tile_rect({ix, iy}).xhi, d.tile_rect({ix + 1, iy}).xlo);
}

TEST_P(DissectionSweep, EveryWindowIsRbyRTiles) {
  const auto [die_side, window, r] = GetParam();
  const Dissection d(geom::Rect{0, 0, die_side, die_side}, window, r);
  for (int wy = 0; wy < d.windows_y(); ++wy) {
    for (int wx = 0; wx < d.windows_x(); ++wx) {
      const geom::Rect w = d.window_rect(wx, wy);
      // The window's extent equals the union of its r x r tiles (up to fp
      // rounding of window/r multiples).
      geom::Rect uni;
      for (int iy = wy; iy < wy + r; ++iy)
        for (int ix = wx; ix < wx + r; ++ix)
          uni = geom::bounding_box(uni, d.tile_rect({ix, iy}));
      EXPECT_NEAR(w.xlo, uni.xlo, 1e-9);
      EXPECT_NEAR(w.ylo, uni.ylo, 1e-9);
      EXPECT_NEAR(w.xhi, uni.xhi, 1e-9);
      EXPECT_NEAR(w.yhi, uni.yhi, 1e-9);
    }
  }
}

TEST_P(DissectionSweep, EveryPointMapsToItsTile) {
  const auto [die_side, window, r] = GetParam();
  const Dissection d(geom::Rect{0, 0, die_side, die_side}, window, r);
  Rng rng(17);
  for (int probe = 0; probe < 200; ++probe) {
    const geom::Point p{rng.uniform_real(0, die_side),
                        rng.uniform_real(0, die_side)};
    const TileIndex t = d.tile_at(p);
    EXPECT_TRUE(d.tile_rect(t).contains(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, DissectionSweep,
                         ::testing::Values(DisCase{64, 32, 2},
                                           DisCase{64, 32, 4},
                                           DisCase{100, 20, 5},
                                           DisCase{52, 20, 4},
                                           DisCase{33, 11, 3},
                                           DisCase{128, 32, 8}));

// -------------------------------------------------------------- heatmap ----

TEST(DensityAscii, ShapeAndOrientation) {
  const Dissection d(geom::Rect{0, 0, 24, 24}, 8.0, 2);  // 5x5 windows
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 8, 8});  // dense window at the BOTTOM-left
  const std::string art = render_density_ascii(m);
  // 5 rows of 5 chars + newlines.
  ASSERT_EQ(art.size(), 5u * 6u);
  // Highest y first: the dense corner must appear in the LAST row.
  const std::string last_row = art.substr(4 * 6, 5);
  const std::string first_row = art.substr(0, 5);
  EXPECT_EQ(last_row[0], '@');
  EXPECT_EQ(first_row[0], ' ');
}

TEST(DensityAscii, UniformMapRendersUniformly) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 16, 16});
  const std::string art = render_density_ascii(m, 0.0, 1.0);
  for (const char c : art)
    if (c != '\n') EXPECT_EQ(c, '@');
}

TEST(DensityAscii, ExplicitScaleClamps) {
  const Dissection d(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 16, 16});  // density 1 everywhere
  const std::string art = render_density_ascii(m, 0.0, 0.5);  // over scale top
  for (const char c : art)
    if (c != '\n') EXPECT_EQ(c, '@');  // clamped to the ramp's top
}

// ----------------------------------------------------------- smoothness ----

TEST(Smoothness, FlatLayoutIsPerfectlySmooth) {
  const Dissection d(geom::Rect{0, 0, 32, 32}, 8.0, 2);
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 32, 32});
  const SmoothnessReport r = analyze_smoothness(m);
  EXPECT_DOUBLE_EQ(r.type1, 0.0);
  EXPECT_DOUBLE_EQ(r.type2, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_abs_step, 0.0);
  EXPECT_DOUBLE_EQ(r.variation, 0.0);
}

TEST(Smoothness, SingleDenseWindowCreatesSteps) {
  const Dissection d(geom::Rect{0, 0, 32, 32}, 8.0, 2);  // tile 4
  DensityMap m(d);
  m.add_rect(geom::Rect{0, 0, 4, 4});  // one full tile in the corner
  const SmoothnessReport r = analyze_smoothness(m);
  // Window (0,0) has density 16/64 = 0.25; one tile shift drops it to 0.
  EXPECT_DOUBLE_EQ(r.type1, 0.25);
  EXPECT_DOUBLE_EQ(r.type2, 0.25);
  EXPECT_GT(r.mean_abs_step, 0.0);
}

TEST(Smoothness, BoundedByVariation) {
  const layout::Layout l = layout::make_testcase_t2();
  for (const int rr : {2, 4}) {
    const Dissection d(l.die(), 32.0, rr);
    DensityMap m(d);
    m.add_layer_metal(l, 0);
    const SmoothnessReport r = analyze_smoothness(m);
    EXPECT_GT(r.type1, 0.0);
    EXPECT_LE(r.type1, r.variation + 1e-12);
    EXPECT_LE(r.type2, r.variation + 1e-12);
    EXPECT_LE(r.mean_abs_step, r.type1 + 1e-12);
    // One-tile-shifted windows share most tiles, so their step is smaller
    // than (or equal to) the disjoint-window step on smooth real layouts.
    EXPECT_LE(r.type1, r.type2 + 0.05);
  }
}

TEST(Smoothness, FillImprovesSmoothness) {
  // The min-var fill targeter must not worsen (and usually improves) the
  // smoothness metrics along with the variation.
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection d(l.die(), 32.0, 4);
  DensityMap before(d);
  before.add_layer_metal(l, 0);

  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const fill::FillRules rules;
  const auto slack = fill::extract_slack_columns(l, d, pieces, 0, rules,
                                                 fill::SlackMode::kIII);
  std::vector<int> cap(d.num_tiles());
  for (int t = 0; t < d.num_tiles(); ++t) cap[t] = slack.tile_capacity(t);
  const auto target = density::compute_fill_amounts_mc(before, cap, rules);

  DensityMap after = before;
  for (int t = 0; t < d.num_tiles(); ++t)
    after.add_area(d.tile_unflat(t),
                   target.features_per_tile[t] * rules.feature_area());
  const SmoothnessReport rb = analyze_smoothness(before);
  const SmoothnessReport ra = analyze_smoothness(after);
  EXPECT_LT(ra.variation, rb.variation);
  EXPECT_LE(ra.type1, rb.type1 + 1e-9);
  EXPECT_LT(ra.mean_abs_step, rb.mean_abs_step);
}

// Property: for random rects, per-tile areas sum to the clipped rect area.
TEST(DensityMapProperty, AreaConservation) {
  const Dissection d(geom::Rect{0, 0, 60, 60}, 20.0, 5);  // tile 4
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    DensityMap m(d);
    const double x = rng.uniform_real(-10, 65);
    const double y = rng.uniform_real(-10, 65);
    const geom::Rect r{x, y, x + rng.uniform_real(0.1, 30),
                       y + rng.uniform_real(0.1, 30)};
    m.add_rect(r);
    double total = 0;
    for (int flat = 0; flat < d.num_tiles(); ++flat)
      total += m.tile_area_flat(flat);
    EXPECT_NEAR(total, geom::overlap_area(r, d.die()), 1e-9);
  }
}

// Property: every window density lies within [0,1] for real layouts and the
// stats are consistent with direct enumeration.
TEST(DensityMapProperty, StatsMatchEnumeration) {
  const layout::Layout l = layout::make_testcase_t2();
  for (const int r : {2, 4, 8}) {
    const Dissection d(l.die(), 32.0, r);
    DensityMap m(d);
    m.add_layer_metal(l, 0);
    const DensityStats s = m.stats();
    double mn = 1e9, mx = -1e9;
    for (int wy = 0; wy < d.windows_y(); ++wy)
      for (int wx = 0; wx < d.windows_x(); ++wx) {
        const double dens = m.window_density(wx, wy);
        EXPECT_GE(dens, 0.0);
        EXPECT_LE(dens, 1.0);
        mn = std::min(mn, dens);
        mx = std::max(mx, dens);
      }
    EXPECT_DOUBLE_EQ(s.min_density, mn);
    EXPECT_DOUBLE_EQ(s.max_density, mx);
  }
}

TEST(SimdWindowSums, DensityStatsClippedEdgeRegression) {
  // Clipped-edge windows in DensityMap::stats(): a die whose width is not
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

}  // namespace
}  // namespace pil::grid

// Tests for pil/fill: fill rules and the scan-line slack-column extraction
// (Figure 7) under all three slack definitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "pil/fill/checker.hpp"
#include "pil/fill/slack.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/util/rng.hpp"
#include "pil/util/strings.hpp"

namespace pil::fill {
namespace {

using grid::Dissection;
using layout::Layout;
using layout::Net;
using layout::NetId;
using rctree::WirePiece;

const FillRules kRules{};  // feature 0.5, gap 0.5, buffer 0.5

layout::Layer m3() {
  layout::Layer m;
  m.name = "m3";
  return m;
}

/// Two long parallel trunks across a 32 um die at y = 10 and y = 20, each a
/// separate 2-pin net flowing left to right.
Layout two_line_layout(double y0 = 10.0, double y1 = 20.0) {
  Layout l(geom::Rect{0, 0, 32, 32});
  l.add_layer(m3());
  for (const double y : {y0, y1}) {
    Net n;
    n.name = "n" + std::to_string(l.num_nets());
    n.source = geom::Point{1, y};
    n.sinks.push_back({geom::Point{31, y}, 2.0});
    const NetId nid = l.add_net(n);
    l.add_segment(nid, 0, {1, y}, {31, y}, 0.5);
  }
  return l;
}

std::vector<WirePiece> pieces_of(const Layout& l) {
  return flatten_pieces(rctree::build_all_trees(l));
}

// ---------------------------------------------------------------- rules ----

TEST(FillRules, CapacityInSpan) {
  FillRules r;  // 0.5 feature, 0.5 gap -> pitch 1.0
  EXPECT_EQ(r.capacity_in_span(0.4), 0);
  EXPECT_EQ(r.capacity_in_span(0.5), 1);
  EXPECT_EQ(r.capacity_in_span(1.4), 1);
  EXPECT_EQ(r.capacity_in_span(1.5), 2);
  EXPECT_EQ(r.capacity_in_span(3.5), 4);
}

TEST(FillRules, Validate) {
  FillRules r;
  EXPECT_NO_THROW(r.validate());
  r.feature_um = 0;
  EXPECT_THROW(r.validate(), Error);
}

// ------------------------------------------------------------- mode III ----

TEST(SlackIII, TwoLineGapStructure) {
  const Layout l = two_line_layout();
  const Dissection dis(l.die(), 16.0, 2);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);

  // Columns exist between the lines (two-sided) and between each line and
  // the die boundary (one-sided).
  int two_sided = 0, boundary = 0;
  for (const auto& col : s.columns()) {
    if (col.two_sided()) {
      ++two_sided;
      // Edge-to-edge: (20 - 0.25) - (10 + 0.25) = 9.5.
      EXPECT_NEAR(col.gap_um, 9.5, 1e-9);
      // Usable span shrinks by the buffer at both ends.
      EXPECT_NEAR(col.span_lo, 10.25 + 0.5, 1e-9);
      EXPECT_NEAR(col.span_hi, 19.75 - 0.5, 1e-9);
      EXPECT_EQ(col.capacity, kRules.capacity_in_span(8.5));
      EXPECT_EQ(col.below, BoundKind::kLine);
      EXPECT_EQ(col.above, BoundKind::kLine);
      EXPECT_GE(col.below_piece, 0);
      EXPECT_GE(col.above_piece, 0);
    } else {
      ++boundary;
    }
  }
  EXPECT_GT(two_sided, 20);  // roughly one per site column under the overlap
  EXPECT_GT(boundary, 20);
}

TEST(SlackIII, BufferExcludesColumnsNearLineEnds) {
  const Layout l = two_line_layout();
  const Dissection dis(l.die(), 16.0, 2);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);
  // Two-sided columns only exist where the inflated x-ranges of both lines
  // cover the column footprint: [1 - 0.75, 31 + 0.75] inflated by buffer.
  for (const auto& col : s.columns()) {
    if (!col.two_sided()) continue;
    EXPECT_GE(col.x_lo, 1.0 - 0.25 - 0.5 - 1e-9);
    EXPECT_LE(col.x_lo + kRules.feature_um, 31.0 + 0.25 + 0.5 + 1e-9);
  }
}

TEST(SlackIII, SitesDoNotOverlapWires) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);

  // Every potential site, inflated by the buffer, must be clear of all
  // drawn wire rects. Spot-check a sample of columns exhaustively.
  std::vector<geom::Rect> wire_rects;
  for (const auto& seg : l.segments()) wire_rects.push_back(seg.rect());

  int checked = 0;
  for (std::size_t ci = 0; ci < s.columns().size(); ci += 7) {
    const SlackColumn& col = s.columns()[ci];
    for (int i = 0; i < col.capacity; ++i) {
      const double y = col.site_y(i, kRules);
      const geom::Rect site{col.x_lo, y, col.x_lo + kRules.feature_um,
                            y + kRules.feature_um};
      const geom::Rect guard = site.inflated(kRules.buffer_um - 1e-9);
      for (const auto& w : wire_rects)
        ASSERT_FALSE(geom::overlaps_strictly(guard, w))
            << "site " << site << " too close to wire " << w;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(SlackIII, SitesWithinDie) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);
  for (const auto& col : s.columns()) {
    EXPECT_GE(col.span_lo, l.die().ylo - 1e-9);
    EXPECT_LE(col.span_hi, l.die().yhi + 1e-9);
    EXPECT_GE(col.x_lo, l.die().xlo);
    EXPECT_LE(col.x_lo + kRules.feature_um, l.die().xhi + 1e-9);
  }
}

TEST(SlackIII, TilePartsPartitionColumns) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);

  // Sites across all tile parts == sites across all columns, each exactly
  // once, and each part's sites really lie in its tile.
  std::vector<std::vector<bool>> seen(s.columns().size());
  for (std::size_t ci = 0; ci < s.columns().size(); ++ci)
    seen[ci].assign(s.columns()[ci].capacity, false);

  for (int t = 0; t < dis.num_tiles(); ++t) {
    const geom::Rect tile = dis.tile_rect(dis.tile_unflat(t));
    for (const auto& part : s.tile_parts(t)) {
      const SlackColumn& col = s.columns()[part.column];
      for (int i = part.first_site; i < part.first_site + part.num_sites;
           ++i) {
        ASSERT_FALSE(seen[part.column][i]) << "site assigned to two tiles";
        seen[part.column][i] = true;
        const double cy = col.site_y(i, kRules) + kRules.feature_um / 2;
        EXPECT_TRUE(tile.contains(geom::Point{col.x_center, cy}));
      }
    }
  }
  for (std::size_t ci = 0; ci < seen.size(); ++ci)
    for (std::size_t i = 0; i < seen[ci].size(); ++i)
      EXPECT_TRUE(seen[ci][i]) << "orphan site " << ci << "/" << i;
}

TEST(SlackIII, VerticalWiresSplitGaps) {
  // Two lines with a vertical blocker between them: the pierced column must
  // be split (or shortened), never overlapping the blocker.
  Layout l = two_line_layout();
  Net n;
  n.name = "blk";
  n.source = geom::Point{16, 12};
  n.sinks.push_back({geom::Point{16, 18}, 1.0});
  const NetId nid = l.add_net(n);
  l.add_segment(nid, 0, {16, 12}, {16, 18}, 0.5);

  const Dissection dis(l.die(), 16.0, 2);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);
  const geom::Rect blocker =
      geom::Rect{15.75, 12, 16.25, 18}.inflated(kRules.buffer_um - 1e-9);
  for (const auto& col : s.columns()) {
    for (int i = 0; i < col.capacity; ++i) {
      const double y = col.site_y(i, kRules);
      const geom::Rect site{col.x_lo, y, col.x_lo + kRules.feature_um,
                            y + kRules.feature_um};
      EXPECT_FALSE(geom::overlaps_strictly(site, blocker));
    }
  }
}

// ----------------------------------------------------------- modes I / II ----

TEST(SlackModes, CapacityOrdering) {
  // Mode I misses boundary gaps, so: capacity(I) <= capacity(II), and
  // mode III sees everything mode II sees (with cross-tile accuracy).
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const auto s1 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kI);
  const auto s2 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kII);
  EXPECT_LT(s1.total_capacity(), s2.total_capacity());
  for (int t = 0; t < dis.num_tiles(); ++t)
    EXPECT_LE(s1.tile_capacity(t), s2.tile_capacity(t));
}

TEST(SlackModes, ModeIOnlyTwoSided) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const auto s1 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kI);
  for (const auto& col : s1.columns()) EXPECT_TRUE(col.two_sided());
}

TEST(SlackModes, ModeIIColumnsStayInTheirTile) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto pieces = pieces_of(l);
  const auto s2 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kII);
  for (int t = 0; t < dis.num_tiles(); ++t) {
    const geom::Rect tile = dis.tile_rect(dis.tile_unflat(t));
    for (const auto& part : s2.tile_parts(t)) {
      const SlackColumn& col = s2.columns()[part.column];
      EXPECT_GE(col.span_lo, tile.ylo - 1e-9);
      EXPECT_LE(col.span_hi, tile.yhi + 1e-9);
      EXPECT_GE(col.x_lo, tile.xlo - 1e-9);
      EXPECT_LE(col.x_lo + kRules.feature_um, tile.xhi + 1e-9);
    }
  }
}

TEST(SlackModes, EmptyTileIsFullColumnsInModeII) {
  // A layout with all wires in the left half: right-half tiles get pure
  // tile-edge-to-tile-edge columns in mode II and nothing in mode I.
  const Layout l = two_line_layout();
  const Dissection dis(l.die(), 16.0, 2);  // tile 8
  const auto pieces = pieces_of(l);
  const auto s1 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kI);
  const auto s2 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kII);
  // Tile (3,3) = x,y in [24,32]: above both lines, no active lines inside
  // except... y in [24,32] has no lines (lines at 10, 20).
  const int flat = dis.tile_flat({3, 3});
  EXPECT_TRUE(s1.tile_parts(flat).empty());
  EXPECT_FALSE(s2.tile_parts(flat).empty());
  for (const auto& part : s2.tile_parts(flat))
    EXPECT_FALSE(s2.columns()[part.column].two_sided());
}

TEST(SlackModes, TotalCapacityIIVsIII) {
  // Mode II fragments gaps at tile boundaries (plus per-boundary gap/2
  // margins), so it can only lose capacity relative to the global scan.
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 20.0, 4);
  const auto pieces = pieces_of(l);
  const auto s2 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kII);
  const auto s3 =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);
  EXPECT_LE(s2.total_capacity(), s3.total_capacity());
  EXPECT_GT(s3.total_capacity(), 0);
}

// ------------------------------------------------------- oracle (Fig. 7) ----

/// Brute-force per-column capacity: greedily stack sites bottom-up at the
/// column's x position, testing each candidate directly against the spec
/// (buffer distance to any wire, gap/2 to the die edge). On layouts without
/// wrong-direction wires this must match the scan-line extractor exactly.
int brute_force_column_capacity(const Layout& l, double x_lo,
                                const FillRules& rules) {
  std::vector<geom::Rect> wires;
  for (const auto& seg : l.segments()) wires.push_back(seg.rect());
  for (const auto& b : l.blockages()) wires.push_back(b.rect);
  const geom::Rect die = l.die();
  const double f = rules.feature_um;
  auto legal = [&](double y) {
    const geom::Rect site{x_lo, y, x_lo + f, y + f};
    if (site.xlo < die.xlo + rules.gap_um / 2 - 1e-9 ||
        site.xhi > die.xhi - rules.gap_um / 2 + 1e-9 ||
        site.ylo < die.ylo + rules.gap_um / 2 - 1e-9 ||
        site.yhi > die.yhi - rules.gap_um / 2 + 1e-9)
      return false;
    const geom::Rect guard = site.inflated(rules.buffer_um - 1e-9);
    for (const auto& w : wires)
      if (geom::overlaps_strictly(guard, w)) return false;
    return true;
  };
  // Greedy bottom-up packing on a fine y grid (0.05 um steps resolve all
  // shipped geometry, which lives on a 0.25 um grid).
  const double step = 0.05;
  int count = 0;
  double y = die.ylo;
  while (y + f <= die.yhi + 1e-9) {
    if (legal(y)) {
      ++count;
      y += rules.pitch();
    } else {
      y += step;
    }
  }
  return count;
}

TEST(SlackOracle, ScanlineMatchesBruteForcePacking) {
  // Parallel lines only (no vertical wires): per-column capacities from the
  // scan-line algorithm must equal independent greedy packing.
  Layout l(geom::Rect{0, 0, 24, 24});
  layout::Layer m;
  m.name = "m3";
  l.add_layer(m);
  for (const double y : {4.0, 7.0, 13.0, 20.5}) {
    Net n;
    n.name = "n" + std::to_string(l.num_nets());
    n.source = geom::Point{1, y};
    n.sinks.push_back({geom::Point{23, y}, 1.0});
    const NetId nid = l.add_net(n);
    l.add_segment(nid, 0, {1, y}, {23, y}, 0.5);
  }
  const Dissection dis(l.die(), 12.0, 2);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);

  // Sum extractor capacity per column index.
  std::map<int, int> cap_by_col;
  for (const auto& col : s.columns()) cap_by_col[col.col_index] += col.capacity;

  int checked = 0;
  for (const auto& [ci, cap] : cap_by_col) {
    const double x_lo = l.die().xlo + kRules.gap_um / 2 + ci * kRules.pitch();
    EXPECT_EQ(cap, brute_force_column_capacity(l, x_lo, kRules))
        << "column " << ci;
    ++checked;
  }
  EXPECT_GT(checked, 15);
}

TEST(SlackOracle, BlockagesMatchBruteForce) {
  // Parallel lines with a macro blockage between them: per-column
  // capacities must still match independent greedy packing exactly.
  Layout l(geom::Rect{0, 0, 24, 24});
  layout::Layer m;
  m.name = "m3";
  l.add_layer(m);
  for (const double y : {3.0, 21.0}) {
    Net n;
    n.name = "n" + std::to_string(l.num_nets());
    n.source = geom::Point{1, y};
    n.sinks.push_back({geom::Point{23, y}, 1.0});
    const NetId nid = l.add_net(n);
    l.add_segment(nid, 0, {1, y}, {23, y}, 0.5);
  }
  l.add_blockage(0, geom::Rect{8, 9, 16, 15}, true);

  const Dissection dis(l.die(), 12.0, 2);
  const auto pieces = pieces_of(l);
  const SlackColumns s =
      extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);

  std::map<int, int> cap_by_col;
  for (const auto& col : s.columns()) cap_by_col[col.col_index] += col.capacity;
  int checked = 0;
  for (const auto& [ci, cap] : cap_by_col) {
    const double x_lo = l.die().xlo + kRules.gap_um / 2 + ci * kRules.pitch();
    EXPECT_EQ(cap, brute_force_column_capacity(l, x_lo, kRules))
        << "column " << ci;
    ++checked;
  }
  EXPECT_GT(checked, 15);
  // Columns under the macro are split: both a below-run and an above-run
  // must exist at the macro's x-center.
  int runs_at_center = 0;
  for (const auto& col : s.columns())
    if (col.x_center > 11 && col.x_center < 13) ++runs_at_center;
  EXPECT_GE(runs_at_center, 2);
}

TEST(SlackOracle, RandomParallelLineLayouts) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    Layout l(geom::Rect{0, 0, 20, 20});
    layout::Layer m;
    m.name = "m3";
    l.add_layer(m);
    double y = 1.0;
    while (y < 19.0) {
      if (rng.bernoulli(0.6)) {
        const double x0 = 0.25 * rng.uniform_int(2, 20);
        const double x1 = x0 + 0.25 * rng.uniform_int(8, 40);
        if (x1 < 19.5) {
          Net n;
          n.name = "n" + std::to_string(l.num_nets());
          n.source = geom::Point{x0, y};
          n.sinks.push_back({geom::Point{x1, y}, 1.0});
          const NetId nid = l.add_net(n);
          l.add_segment(nid, 0, {x0, y}, {x1, y}, 0.5);
        }
      }
      y += 0.25 * rng.uniform_int(4, 12);
    }
    if (l.num_nets() == 0) continue;
    const Dissection dis(l.die(), 10.0, 2);
    const auto pieces = pieces_of(l);
    const SlackColumns s =
        extract_slack_columns(l, dis, pieces, 0, kRules, SlackMode::kIII);
    std::map<int, int> cap_by_col;
    for (const auto& col : s.columns())
      cap_by_col[col.col_index] += col.capacity;
    for (const auto& [ci, cap] : cap_by_col) {
      const double x_lo =
          l.die().xlo + kRules.gap_um / 2 + ci * kRules.pitch();
      ASSERT_EQ(cap, brute_force_column_capacity(l, x_lo, kRules))
          << "trial " << trial << " column " << ci;
    }
  }
}

// -------------------------------------------------------------- checker ----

TEST(Checker, CleanPlacementPasses) {
  const Layout l = two_line_layout();
  // Two legal features between the lines, one site apart.
  const std::vector<geom::Rect> feats = {{10, 11.25, 10.5, 11.75},
                                         {10, 12.25, 10.5, 12.75}};
  CheckOptions opt;
  const CheckReport r = check_fill(l, feats, opt);
  EXPECT_TRUE(r.clean()) << (r.violations.empty()
                                 ? ""
                                 : r.violations[0].describe());
  EXPECT_EQ(r.features_checked, 2);
}

TEST(Checker, DetectsBufferViolation) {
  const Layout l = two_line_layout();  // line edge at y = 10.25
  const std::vector<geom::Rect> feats = {{10, 10.5, 10.5, 11.0}};  // 0.25 gap
  const CheckReport r = check_fill(l, feats, CheckOptions{});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kBufferToWire);
  EXPECT_NEAR(r.violations[0].measure, 0.25, 1e-9);
}

TEST(Checker, DetectsFillSpacingViolation) {
  const Layout l = two_line_layout();
  const std::vector<geom::Rect> feats = {{10, 12, 10.5, 12.5},
                                         {10, 12.75, 10.5, 13.25}};
  const CheckReport r = check_fill(l, feats, CheckOptions{});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kFillSpacing);
  EXPECT_NEAR(r.violations[0].measure, 0.25, 1e-9);
}

TEST(Checker, DetectsOutsideDieAndShape) {
  const Layout l = two_line_layout();
  const std::vector<geom::Rect> feats = {{31.8, 5, 32.3, 5.5},   // off die
                                         {4, 5, 4.7, 5.5}};      // not square
  const CheckReport r = check_fill(l, feats, CheckOptions{});
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kOutsideDie);
  EXPECT_EQ(r.violations[1].kind, ViolationKind::kNotSquare);
}

TEST(Checker, DetectsDensityOverCap) {
  const Layout l = two_line_layout();
  const grid::Dissection dis(l.die(), 16.0, 2);
  // Carpet a window with illegal density (cap 0.001 so wires alone bust it).
  CheckOptions opt;
  opt.max_window_density = 0.001;
  const CheckReport r = check_fill(l, {}, opt, &dis);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kDensityOverCap);
  // Without a dissection the density check is a hard error.
  EXPECT_THROW(check_fill(l, {}, opt, nullptr), Error);

  // A metal blockage counts toward window density: a cap between the
  // wire-only and the wire-plus-macro density is busted.
  Layout macro = two_line_layout();
  macro.add_blockage(0, geom::Rect{4, 22, 12, 30}, /*is_metal=*/true);
  grid::DensityMap wires_only(dis);
  for (const auto& seg : macro.segments()) wires_only.add_rect(seg.rect());
  grid::DensityMap with_metal(dis);
  with_metal.add_layer_metal(macro, 0);
  opt.max_window_density = 0.5 * (wires_only.stats().max_density +
                                  with_metal.stats().max_density);
  ASSERT_LT(wires_only.stats().max_density, opt.max_window_density);
  const CheckReport metal = check_fill(macro, {}, opt, &dis);
  ASSERT_FALSE(metal.clean());
  EXPECT_EQ(metal.violations[0].kind, ViolationKind::kDensityOverCap);
}

TEST(Checker, ViolationCapBoundsOutput) {
  const Layout l = two_line_layout();
  std::vector<geom::Rect> feats;
  for (int i = 0; i < 50; ++i)  // a stack of overlapping features
    feats.push_back(geom::Rect{5, 5, 5.5, 5.5});
  CheckOptions opt;
  opt.max_violations = 7;
  const CheckReport r = check_fill(l, feats, opt);
  EXPECT_EQ(r.violations.size(), 7u);
}

// The cap bounds the list, not the verdict: three stacked squares are three
// violations at any cap, 0 included.
TEST(Checker, CleanIgnoresTheCap) {
  const Layout l = two_line_layout();
  const std::vector<geom::Rect> feats(3, geom::Rect{5, 5, 5.5, 5.5});
  for (const std::size_t cap : {0u, 1u, 7u}) {
    CheckOptions opt;
    opt.max_violations = cap;
    const CheckReport r = check_fill(l, feats, opt);
    EXPECT_FALSE(r.clean()) << "cap " << cap;
    EXPECT_EQ(r.violations_found, 3) << "cap " << cap;
    EXPECT_EQ(r.violations.size(), std::min<std::size_t>(cap, 3))
        << "cap " << cap;
  }
}

TEST(Checker, DescribeIsHumanReadable) {
  Violation v;
  v.kind = ViolationKind::kFillSpacing;
  v.a = geom::Rect{0, 0, 1, 1};
  v.b = geom::Rect{1.1, 0, 2.1, 1};
  v.measure = 0.1;
  const std::string s = v.describe();
  EXPECT_NE(s.find("fill-spacing"), std::string::npos);
  EXPECT_NE(s.find("0.1"), std::string::npos);
}

// Every shipped method's placement must pass the independent checker.
TEST(Checker, AllFlowPlacementsAreClean) {
  const Layout l = layout::make_testcase_t2();
  pilfill::FlowConfig config;
  config.window_um = 32;
  config.r = 4;
  const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
      l, config,
      {pilfill::Method::kNormal, pilfill::Method::kIlp1,
       pilfill::Method::kIlp2, pilfill::Method::kGreedy,
       pilfill::Method::kConvex});
  const grid::Dissection dis(l.die(), config.window_um, config.r);
  for (const auto& mr : res.methods) {
    CheckOptions opt;
    opt.rules = config.rules;
    const CheckReport r = check_fill(l, mr.placement.features, opt, &dis);
    EXPECT_TRUE(r.clean())
        << to_string(mr.method) << ": " << r.violations.size()
        << " violations, first: "
        << (r.violations.empty() ? "" : r.violations[0].describe());
  }
}

// ---------------------------------------------------- checker report lock ----

/// Max-norm gap between two rectangles, the checker's spacing measure.
double max_norm_gap(const geom::Rect& a, const geom::Rect& b) {
  const double dx = std::max({a.xlo - b.xhi, b.xlo - a.xhi, 0.0});
  const double dy = std::max({a.ylo - b.yhi, b.ylo - a.yhi, 0.0});
  return std::max(dx, dy);
}

/// The checker's geometric rules with no spatial index: each feature
/// against the die, its shape, every keep-out, every wire on the layer and
/// every later feature.
std::vector<Violation> brute_force_violations(
    const Layout& l, const std::vector<geom::Rect>& feats,
    const CheckOptions& opt) {
  const FillRules& rules = opt.rules;
  const std::vector<geom::Rect> keepouts = l.blockages_on_layer(opt.layer);
  std::vector<geom::Rect> wires;
  for (const auto& seg : l.segments())
    if (seg.layer == opt.layer) wires.push_back(seg.rect());
  std::vector<Violation> out;
  for (std::size_t i = 0; i < feats.size(); ++i) {
    const geom::Rect& r = feats[i];
    if (!l.die().contains(r))
      out.push_back({ViolationKind::kOutsideDie, r, {}, 0.0});
    if (!geom::nearly_equal(r.width(), rules.feature_um, 1e-9) ||
        !geom::nearly_equal(r.height(), rules.feature_um, 1e-9))
      out.push_back({ViolationKind::kNotSquare, r, {}, r.width()});
    for (const geom::Rect& ko : keepouts) {
      const double g = max_norm_gap(r, ko);
      if (g < rules.buffer_um - 1e-9)
        out.push_back({ViolationKind::kInsideBlockage, r, ko, g});
    }
    for (const geom::Rect& w : wires) {
      const double g = max_norm_gap(r, w);
      if (g < rules.buffer_um - 1e-9)
        out.push_back({ViolationKind::kBufferToWire, r, w, g});
    }
    for (std::size_t j = i + 1; j < feats.size(); ++j) {
      const double g = max_norm_gap(r, feats[j]);
      if (g < rules.gap_um - 1e-9)
        out.push_back({ViolationKind::kFillSpacing, r, feats[j], g});
    }
  }
  return out;
}

/// A violation as ten words: its kind, both rectangles' bits and its
/// measure's bits.
std::array<std::uint64_t, 10> violation_words(const Violation& v) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return {static_cast<std::uint64_t>(v.kind),
          bits(v.a.xlo), bits(v.a.ylo), bits(v.a.xhi), bits(v.a.yhi),
          bits(v.b.xlo), bits(v.b.ylo), bits(v.b.xhi), bits(v.b.yhi),
          bits(v.measure)};
}

/// FNV-1a 64 over the report's violations in order, each word
/// little-endian.
std::uint64_t report_hash(const CheckReport& report) {
  std::uint64_t h = kFnv1a64Offset;
  for (const Violation& v : report.violations) {
    for (const std::uint64_t w : violation_words(v)) {
      char le[8];
      for (int b = 0; b < 8; ++b) le[b] = static_cast<char>(w >> (8 * b));
      h = fnv1a64(std::string_view(le, sizeof(le)), h);
    }
  }
  return h;
}

struct CheckCase {
  std::string name;
  const Layout* layout;
  std::vector<geom::Rect> features;
};

/// A flow placement under the perturbations that move features across
/// cell boundaries, off the die, onto each other and out of input order.
void add_perturbed_cases(const std::string& prefix, const Layout& l,
                         const std::vector<geom::Rect>& placed,
                         std::vector<CheckCase>& out) {
  const geom::Rect die = l.die();
  Rng rng(0x5eedc4ecull);
  auto add = [&](const char* name, std::vector<geom::Rect> feats) {
    out.push_back({prefix + "/" + name, &l, std::move(feats)});
  };
  auto shifted = [](geom::Rect r, double dx, double dy) {
    return geom::Rect{r.xlo + dx, r.ylo + dy, r.xhi + dx, r.yhi + dy};
  };
  add("placed", placed);

  std::vector<geom::Rect> jitter = placed;
  for (auto& r : jitter)
    if (rng.bernoulli(0.05))
      r = shifted(r, rng.uniform_real(-0.8, 0.8), rng.uniform_real(-0.8, 0.8));
  add("jitter", std::move(jitter));

  // The order-only perturbations start from a dirty list, so that their
  // reports have an order to pin.
  std::vector<geom::Rect> dup;
  for (const auto& r : out.back().features) {
    dup.push_back(r);
    if (rng.bernoulli(0.05)) dup.push_back(r);
  }
  add("duplicated", dup);

  std::vector<geom::Rect> thin;
  for (const auto& r : dup)
    if (rng.bernoulli(0.5)) thin.push_back(r);
  add("thinned", std::move(thin));
  add("reversed", std::vector<geom::Rect>(dup.rbegin(), dup.rend()));
  std::vector<geom::Rect> shuffled = dup;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[rng.uniform_int(0, static_cast<long long>(i) - 1)]);
  add("shuffled", std::move(shuffled));

  // Off the die by up to 20 um past one side, chosen per feature.
  std::vector<geom::Rect> off = placed;
  for (auto& r : off) {
    if (!rng.bernoulli(0.05)) continue;
    const double d = rng.uniform_real(0.0, 20.0);
    switch (rng.uniform_int(0, 3)) {
      case 0: r = shifted(r, die.xlo - r.xhi - d, 0); break;
      case 1: r = shifted(r, die.xhi - r.xlo + d, 0); break;
      case 2: r = shifted(r, 0, die.ylo - r.yhi - d); break;
      default: r = shifted(r, 0, die.yhi - r.ylo + d); break;
    }
  }
  add("off_die", std::move(off));

  std::vector<geom::Rect> straddle = placed;
  for (auto& r : straddle) {
    if (!rng.bernoulli(0.05)) continue;
    const double hw = r.width() / 2, hh = r.height() / 2;
    switch (rng.uniform_int(0, 3)) {
      case 0: r = shifted(r, die.xlo - r.xlo - hw, 0); break;
      case 1: r = shifted(r, die.xhi - r.xhi + hw, 0); break;
      case 2: r = shifted(r, 0, die.ylo - r.ylo - hh); break;
      default: r = shifted(r, 0, die.yhi - r.yhi + hh); break;
    }
  }
  add("straddling", std::move(straddle));

  std::vector<geom::Rect> nonsq = placed;
  for (auto& r : nonsq) {
    if (!rng.bernoulli(0.05)) continue;
    (rng.bernoulli(0.5) ? r.xhi : r.yhi) += rng.uniform_real(0.05, 0.6);
  }
  add("non_square", std::move(nonsq));

  const double half = kRules.pitch() / 2;
  std::vector<geom::Rect> half_pitch = placed;
  for (auto& r : half_pitch) r = shifted(r, half, half);
  add("half_pitch", std::move(half_pitch));

  std::vector<geom::Rect> big = placed;
  const geom::Point c = die.center();
  big.insert(big.begin() + static_cast<std::ptrdiff_t>(big.size() / 2),
             geom::Rect{c.x - 25, c.y - 25, c.x + 25, c.y + 25});
  add("big_rect", std::move(big));
}

/// Greedy placements on T2 and on T2 with two metal macros, each under
/// every perturbation.
const std::vector<CheckCase>& checker_cases() {
  static const Layout t2 = layout::make_testcase_t2();
  static const Layout t2_macros = [] {
    layout::SyntheticLayoutConfig cfg = layout::testcase_t2_config();
    cfg.num_macros = 2;
    return layout::generate_synthetic_layout(cfg);
  }();
  static const std::vector<CheckCase> cases = [] {
    std::vector<CheckCase> out;
    for (const auto& [name, l] :
         {std::pair<const char*, const Layout*>{"T2", &t2},
          {"T2+2macros", &t2_macros}}) {
      const pilfill::FlowResult res =
          pilfill::run_pil_fill_flow(*l, {}, {pilfill::Method::kGreedy});
      add_perturbed_cases(name, *l, res.methods[0].placement.features, out);
    }
    return out;
  }();
  return cases;
}

// The grid finds exactly what the brute-force reference finds.
TEST(Checker, GridMatchesBruteForce) {
  CheckOptions opt;
  opt.max_violations = std::numeric_limits<std::size_t>::max();
  int dirty = 0;
  for (const CheckCase& c : checker_cases()) {
    const CheckReport r = check_fill(*c.layout, c.features, opt);
    std::vector<std::array<std::uint64_t, 10>> got, want;
    for (const Violation& v : r.violations) got.push_back(violation_words(v));
    for (const Violation& v :
         brute_force_violations(*c.layout, c.features, opt))
      want.push_back(violation_words(v));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_TRUE(got == want) << c.name << ": " << got.size() << " vs "
                             << want.size() << " violations";
    EXPECT_EQ(r.features_checked, static_cast<long long>(c.features.size()))
        << c.name;
    dirty += !want.empty();
  }
  // Every perturbation but the identity breaks some rule.
  EXPECT_EQ(dirty, static_cast<int>(checker_cases().size()) - 2);
}

// The report's order is part of its contract: features in input order, and
// per feature its neighbours in row-major cell order, ascending id within a
// cell. The constants pin that order: a grid change that moves one changes
// what the checker reports.
TEST(Checker, ReportOrderIsPinned) {
  struct Pinned {
    const char* name;
    std::uint64_t capped;     ///< max_violations = 100
    std::uint64_t unlimited;  ///< max_violations unbounded
  };
  const Pinned kPinned[] = {
      {"T2/placed", 0x14650fb0739d0383ull, 0x14650fb0739d0383ull},
      {"T2/jitter", 0xcc58f96e330503e3ull, 0x47c420c6fea118f3ull},
      {"T2/duplicated", 0xb4582904f40b8bccull, 0x00734cdeabdc0a5cull},
      {"T2/thinned", 0x6b55e14c343e5d34ull, 0x17ab159188f06dc4ull},
      {"T2/reversed", 0xcee524041f11a6aaull, 0x053caca1cfb94d88ull},
      {"T2/shuffled", 0x5ae56af2018902e9ull, 0xbadb84621044d0e8ull},
      {"T2/off_die", 0x9006925bdd1e7782ull, 0x3a52f85ddffb1dadull},
      {"T2/straddling", 0xbe343f62422a486full, 0x85282e5eb066677full},
      {"T2/non_square", 0x45b944f86f593fcdull, 0x89a255cfd1ae8b4full},
      {"T2/half_pitch", 0x91bef4aa036b3ec6ull, 0x7b63904889723233ull},
      {"T2/big_rect", 0x64fd252dc735c69eull, 0x2423cc055995ff1bull},
      {"T2+2macros/placed", 0x14650fb0739d0383ull, 0x14650fb0739d0383ull},
      {"T2+2macros/jitter", 0xcc2893d6f63ecdafull, 0x37282a2edb42ec16ull},
      {"T2+2macros/duplicated", 0xd2772e7dc2f0dad1ull, 0xe098163e4701e22aull},
      {"T2+2macros/thinned", 0x0b0775518c0bdc99ull, 0xe9d6d057693f4fb4ull},
      {"T2+2macros/reversed", 0xea2a41944d65b81cull, 0xc33637ec0d606352ull},
      {"T2+2macros/shuffled", 0xdca73e9ee2bdff1aull, 0x3b5b76d1553093f6ull},
      {"T2+2macros/off_die", 0xbd3c21f59764bab3ull, 0x9fb5f90c7dbe9dfeull},
      {"T2+2macros/straddling", 0x632e68681255ea8full, 0x82ac627dedd815b1ull},
      {"T2+2macros/non_square", 0xa01d034df5951be4ull, 0x9b0f7332fa26c7afull},
      {"T2+2macros/half_pitch", 0x1806839061c7ca4eull, 0xc6522876052993a0ull},
      {"T2+2macros/big_rect", 0x13944ce0c6150b67ull, 0xef668eec13a29339ull},
  };
  const std::vector<CheckCase>& cases = checker_cases();
  ASSERT_EQ(std::size(kPinned), cases.size());
  for (std::size_t k = 0; k < cases.size(); ++k) {
    ASSERT_EQ(cases[k].name, kPinned[k].name);
    CheckOptions capped;
    CheckOptions unlimited;
    unlimited.max_violations = std::numeric_limits<std::size_t>::max();
    const std::uint64_t hc =
        report_hash(check_fill(*cases[k].layout, cases[k].features, capped));
    const std::uint64_t hu = report_hash(
        check_fill(*cases[k].layout, cases[k].features, unlimited));
    EXPECT_EQ(hc, kPinned[k].capped) << cases[k].name;
    EXPECT_EQ(hu, kPinned[k].unlimited) << cases[k].name;
  }

  // Cell order, not id order: A straddles the cell boundary at x = 8 um
  // (cells are 4 um at the default rules). Its later neighbour C in the
  // left cell has a higher id than its neighbour B in the right cell, and
  // is reported first.
  const Layout l = two_line_layout();
  const geom::Rect a{7.75, 5, 8.25, 5.5};
  const geom::Rect b{8.5, 5, 9.0, 5.5};
  const geom::Rect c{7.0, 5, 7.5, 5.5};
  const CheckReport r = check_fill(l, {a, b, c}, CheckOptions{});
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].a, a);
  EXPECT_EQ(r.violations[0].b, c);
  EXPECT_EQ(r.violations[1].a, a);
  EXPECT_EQ(r.violations[1].b, b);
}

TEST(Slack, ToStringNames) {
  EXPECT_STREQ(to_string(SlackMode::kI), "SlackColumn-I");
  EXPECT_STREQ(to_string(SlackMode::kIII), "SlackColumn-III");
}

// Dissection granularity must not change mode III columns (they are global).
TEST(SlackProperty, ModeIIIColumnsIndependentOfDissection) {
  const Layout l = layout::make_testcase_t2();
  const auto pieces = pieces_of(l);
  const Dissection d1(l.die(), 32.0, 2);
  const Dissection d2(l.die(), 20.0, 8);
  const auto a = extract_slack_columns(l, d1, pieces, 0, kRules, SlackMode::kIII);
  const auto b = extract_slack_columns(l, d2, pieces, 0, kRules, SlackMode::kIII);
  ASSERT_EQ(a.columns().size(), b.columns().size());
  EXPECT_EQ(a.total_capacity(), b.total_capacity());
  for (std::size_t i = 0; i < a.columns().size(); ++i) {
    EXPECT_EQ(a.columns()[i].col_index, b.columns()[i].col_index);
    EXPECT_DOUBLE_EQ(a.columns()[i].span_lo, b.columns()[i].span_lo);
    EXPECT_EQ(a.columns()[i].capacity, b.columns()[i].capacity);
  }
}

}  // namespace
}  // namespace pil::fill

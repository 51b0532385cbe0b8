// Tests for pil/layout: data model invariants, .pld round trip, and the
// synthetic generator's design-rule guarantees.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "pil/layout/layout.hpp"
#include "pil/layout/pld_io.hpp"
#include "pil/layout/svg_io.hpp"
#include "pil/layout/synthetic.hpp"

namespace pil::layout {
namespace {

Layout small_layout() {
  Layout l(geom::Rect{0, 0, 100, 100});
  Layer m;
  m.name = "m3";
  l.add_layer(m);
  Net n;
  n.name = "n0";
  n.source = geom::Point{10, 50};
  n.sinks.push_back({geom::Point{40, 52}, 2.5});
  const NetId nid = l.add_net(n);
  l.add_segment(nid, 0, {10, 50}, {40, 50}, 0.5);
  l.add_segment(nid, 0, {40, 50}, {40, 52}, 0.5);
  return l;
}

// ---------------------------------------------------------------- model ----

TEST(Layout, LayerLookup) {
  Layout l(geom::Rect{0, 0, 10, 10});
  Layer m;
  m.name = "metal1";
  const LayerId id = l.add_layer(m);
  EXPECT_EQ(l.find_layer("metal1"), id);
  EXPECT_EQ(l.find_layer("nope"), kInvalidLayer);
  EXPECT_THROW(l.add_layer(m), Error);  // duplicate name
}

TEST(Layout, LayerResPerUm) {
  Layer m;
  m.sheet_res_ohm_sq = 0.08;
  EXPECT_DOUBLE_EQ(m.res_per_um(0.5), 0.16);
  EXPECT_THROW(m.res_per_um(0.0), Error);
}

TEST(Layout, SegmentsAreCanonicalized) {
  Layout l = small_layout();
  const NetId nid = l.add_net([] {
    Net n;
    n.name = "n1";
    n.source = geom::Point{50, 20};
    return n;
  }());
  const SegmentId sid = l.add_segment(nid, 0, {80, 20}, {50, 20}, 0.5);
  EXPECT_DOUBLE_EQ(l.segment(sid).a.x, 50);
  EXPECT_DOUBLE_EQ(l.segment(sid).b.x, 80);
}

TEST(Layout, SegmentOrientationAndRect) {
  const Layout l = small_layout();
  const WireSegment& h = l.segment(0);
  EXPECT_EQ(h.orientation(), Orientation::kHorizontal);
  EXPECT_EQ(h.rect(), (geom::Rect{10, 49.75, 40, 50.25}));
  const WireSegment& v = l.segment(1);
  EXPECT_EQ(v.orientation(), Orientation::kVertical);
  EXPECT_DOUBLE_EQ(v.length(), 2.0);
}

TEST(Layout, RejectsDiagonalSegments) {
  Layout l = small_layout();
  EXPECT_THROW(l.add_segment(0, 0, {0, 0}, {5, 5}, 0.5), Error);
}

TEST(Layout, RejectsOutOfDieGeometry) {
  Layout l = small_layout();
  EXPECT_THROW(l.add_segment(0, 0, {0, 50}, {200, 50}, 0.5), Error);
  Net n;
  n.name = "bad";
  n.source = geom::Point{500, 500};
  EXPECT_THROW(l.add_net(n), Error);
}

TEST(Layout, RejectsDanglingIds) {
  Layout l = small_layout();
  EXPECT_THROW(l.add_segment(99, 0, {0, 0}, {1, 0}, 0.5), Error);
  EXPECT_THROW(l.add_segment(0, 99, {0, 0}, {1, 0}, 0.5), Error);
  EXPECT_THROW(l.net(99), Error);
  EXPECT_THROW(l.segment(99), Error);
  EXPECT_THROW(l.layer(99), Error);
}

TEST(Layout, ValidatePasses) {
  EXPECT_NO_THROW(small_layout().validate());
}

TEST(Layout, TotalWireArea) {
  const Layout l = small_layout();
  // 30 um x 0.5 + 2 um x 0.5.
  EXPECT_NEAR(l.total_wire_area(0), 16.0, 1e-9);
}

TEST(Layout, SegmentsOnLayer) {
  const Layout l = small_layout();
  EXPECT_EQ(l.segments_on_layer(0).size(), 2u);
  EXPECT_TRUE(l.segments_on_layer(1).empty());  // would throw on layer(), but
                                                // filtering just finds none
}

// ------------------------------------------------------------------ pld ----

TEST(PldIo, RoundTrip) {
  const Layout l = small_layout();
  std::ostringstream os;
  write_pld(l, os);
  std::istringstream is(os.str());
  const Layout back = read_pld(is);

  EXPECT_EQ(back.die(), l.die());
  ASSERT_EQ(back.num_layers(), l.num_layers());
  EXPECT_EQ(back.layer(0).name, "m3");
  ASSERT_EQ(back.num_nets(), l.num_nets());
  ASSERT_EQ(back.num_segments(), l.num_segments());
  EXPECT_EQ(back.segment(0).a, l.segment(0).a);
  EXPECT_EQ(back.segment(1).b, l.segment(1).b);
  ASSERT_EQ(back.net(0).sinks.size(), 1u);
  EXPECT_DOUBLE_EQ(back.net(0).sinks[0].load_cap_ff, 2.5);
}

TEST(PldIo, SyntheticRoundTripIsExact) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 64;
  cfg.num_nets = 30;
  cfg.seed = 5;
  const Layout l = generate_synthetic_layout(cfg);
  std::ostringstream os;
  write_pld(l, os);
  std::istringstream is(os.str());
  const Layout back = read_pld(is);
  ASSERT_EQ(back.num_segments(), l.num_segments());
  for (std::size_t i = 0; i < l.num_segments(); ++i) {
    EXPECT_EQ(back.segment(static_cast<SegmentId>(i)).a,
              l.segment(static_cast<SegmentId>(i)).a);
    EXPECT_EQ(back.segment(static_cast<SegmentId>(i)).b,
              l.segment(static_cast<SegmentId>(i)).b);
  }
}

TEST(PldIo, ParseErrorsCarryLineNumbers) {
  auto expect_error = [](const std::string& text, const char* needle) {
    std::istringstream is(text);
    try {
      read_pld(is);
      FAIL() << "expected parse error for: " << text;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      // One line prefix at most, whichever check threw.
      EXPECT_EQ(what.find("pld parse error", what.find("pld parse error") + 1),
                std::string::npos)
          << what;
    }
  };
  expect_error("DIE 0 0 1 1\n", "PLD 1");
  expect_error("PLD 1\nDIE 0 0\n", "DIE");
  expect_error("PLD 1\nDIE 0 0 9 9\nSEG m 0 0 1 0 0.5\n", "SEG outside NET");
  expect_error("PLD 1\nDIE 0 0 9 9\nNET a SOURCE 1 1 RDRV 100\n",
               "unterminated NET");
  expect_error("PLD 1\nDIE 0 0 9 9\nBOGUS\n", "unknown keyword");
  expect_error("PLD 1\nNET a SOURCE 1 1 RDRV 100\nEND\n", "NET before DIE");
  // A bad number, or input the Layout itself rejects, names its line too.
  const std::string head =
      "PLD 1\nDIE 0 0 9 9\n"
      "LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9\n";
  expect_error(head + "NET a SOURCE 1 1 RDRV x\nEND\n", "line 4");
  expect_error(head + "NET a SOURCE 40 1 RDRV 100\nEND\n", "line 4");
  expect_error(head + "NET a SOURCE 1 1 RDRV 100\n  SEG m3 1 1 5 1 0\nEND\n",
               "line 5");
}

TEST(PldIo, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "PLD 1\n# a comment\n\nDIE 0 0 10 10  # trailing\n"
      "LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9\n");
  const Layout l = read_pld(is);
  EXPECT_EQ(l.num_layers(), 1u);
}

TEST(PldIo, MissingFileThrows) {
  EXPECT_THROW(read_pld_file("/nonexistent/file.pld"), Error);
}

// ------------------------------------------------------------ blockages ----

TEST(Blockage, AddAndQuery) {
  Layout l = small_layout();
  l.add_blockage(0, geom::Rect{60, 60, 80, 80}, true);
  l.add_blockage(0, geom::Rect{10, 70, 20, 90});
  ASSERT_EQ(l.blockages().size(), 2u);
  EXPECT_TRUE(l.blockages()[0].is_metal);
  EXPECT_FALSE(l.blockages()[1].is_metal);
  EXPECT_EQ(l.blockages_on_layer(0).size(), 2u);
  EXPECT_THROW(l.add_blockage(5, geom::Rect{0, 0, 1, 1}), Error);
  EXPECT_THROW(l.add_blockage(0, geom::Rect{0, 0, 0, 5}), Error);   // no area
  EXPECT_THROW(l.add_blockage(0, geom::Rect{90, 90, 110, 110}), Error);
}

TEST(Blockage, PldRoundTrip) {
  Layout l = small_layout();
  l.add_blockage(0, geom::Rect{60, 60, 80, 80}, true);
  l.add_blockage(0, geom::Rect{10, 70, 20, 90});
  std::ostringstream os;
  write_pld(l, os);
  std::istringstream is(os.str());
  const Layout back = read_pld(is);
  ASSERT_EQ(back.blockages().size(), 2u);
  EXPECT_EQ(back.blockages()[0].rect, (geom::Rect{60, 60, 80, 80}));
  EXPECT_TRUE(back.blockages()[0].is_metal);
  EXPECT_FALSE(back.blockages()[1].is_metal);
}

TEST(Blockage, TransposedCarriesThem) {
  Layout l = small_layout();
  l.add_blockage(0, geom::Rect{60, 10, 80, 30}, true);
  const Layout t = transposed(l);
  ASSERT_EQ(t.blockages().size(), 1u);
  EXPECT_EQ(t.blockages()[0].rect, (geom::Rect{10, 60, 30, 80}));
  EXPECT_TRUE(t.blockages()[0].is_metal);
}

TEST(Blockage, GeneratorPlacesMacros) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 40;
  cfg.num_macros = 3;
  cfg.seed = 11;
  const Layout l = generate_synthetic_layout(cfg);
  EXPECT_EQ(l.blockages().size(), 3u);
  // Wires keep clear of the macros (min spacing).
  for (const auto& b : l.blockages()) {
    EXPECT_TRUE(b.is_metal);
    for (const auto& s : l.segments())
      EXPECT_FALSE(geom::overlaps_strictly(
          s.rect().inflated(cfg.min_spacing_um / 2),
          b.rect.inflated(cfg.min_spacing_um / 2)))
          << "segment through macro";
  }
}

// ------------------------------------------------------------------ svg ----

TEST(SvgIo, RendersEveryShape) {
  const Layout l = small_layout();
  const std::vector<geom::Rect> fill = {{1, 1, 1.5, 1.5}, {3, 3, 3.5, 3.5}};
  std::ostringstream os;
  write_svg(l, fill, os);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // background + 2 wires + 2 fill rects.
  std::size_t rects = 0;
  for (std::size_t p = svg.find("<rect"); p != std::string::npos;
       p = svg.find("<rect", p + 1))
    ++rects;
  EXPECT_EQ(rects, 5u);
}

TEST(SvgIo, YAxisIsFlipped) {
  // A wire at the die top must render near SVG y = 0.
  Layout l(geom::Rect{0, 0, 100, 100});
  Layer m;
  m.name = "m3";
  l.add_layer(m);
  Net n;
  n.name = "top";
  n.source = geom::Point{10, 99};
  const NetId nid = l.add_net(n);
  l.add_segment(nid, 0, {10, 99}, {90, 99}, 0.5);
  std::ostringstream os;
  SvgOptions opt;
  opt.scale = 1.0;
  opt.color_by_net = false;
  write_svg(l, {}, os, opt);
  // Wire rect top edge: y = 100 - 99.25 = 0.75.
  EXPECT_NE(os.str().find("y=\"0.75\""), std::string::npos);
}

TEST(SvgIo, GridAndOptions) {
  const Layout l = small_layout();
  std::ostringstream os;
  SvgOptions opt;
  opt.grid_um = 25;
  opt.color_by_net = false;
  opt.wire_color = "#123456";
  write_svg(l, {}, os, opt);
  EXPECT_NE(os.str().find("<line"), std::string::npos);
  EXPECT_NE(os.str().find("#123456"), std::string::npos);
  SvgOptions bad;
  bad.scale = 0;
  std::ostringstream os2;
  EXPECT_THROW(write_svg(l, {}, os2, bad), Error);
}

// ------------------------------------------------------------ synthetic ----

class SyntheticTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticTest, DesignRulesHold) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 60;
  cfg.seed = GetParam();
  GeneratorStats stats;
  const Layout l = generate_synthetic_layout(cfg, &stats);
  l.validate();
  EXPECT_GT(stats.nets_placed, 0);

  // No two segments of different nets may be closer than min_spacing
  // (measured rect-to-rect). O(n^2) is fine at this size.
  const auto& segs = l.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      if (segs[i].net == segs[j].net) continue;
      const geom::Rect a = segs[i].rect().inflated(cfg.min_spacing_um / 2);
      const geom::Rect c = segs[j].rect().inflated(cfg.min_spacing_um / 2);
      EXPECT_FALSE(geom::overlaps_strictly(a, c))
          << "segments " << i << " and " << j << " violate spacing";
    }
  }
}

TEST_P(SyntheticTest, EveryNetHasASink) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 40;
  cfg.seed = GetParam();
  const Layout l = generate_synthetic_layout(cfg);
  for (std::size_t i = 0; i < l.num_nets(); ++i)
    EXPECT_FALSE(l.net(static_cast<NetId>(i)).sinks.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(Synthetic, Deterministic) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 80;
  cfg.num_nets = 25;
  cfg.seed = 7;
  const Layout a = generate_synthetic_layout(cfg);
  const Layout b = generate_synthetic_layout(cfg);
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (std::size_t i = 0; i < a.num_segments(); ++i)
    EXPECT_EQ(a.segment(static_cast<SegmentId>(i)).a,
              b.segment(static_cast<SegmentId>(i)).a);
}

TEST(Synthetic, DenseRegionIsDenser) {
  // Few enough nets that the dense half does not saturate (saturation makes
  // retries spill into the sparse half and flattens the gradient).
  SyntheticLayoutConfig cfg;
  cfg.die_um = 128;
  cfg.num_nets = 60;
  cfg.dense_region_fraction = 0.5;
  cfg.dense_net_fraction = 0.8;
  cfg.seed = 3;
  const Layout l = generate_synthetic_layout(cfg);
  double left = 0, right = 0;
  const geom::Rect lhalf{0, 0, 64, 128}, rhalf{64, 0, 128, 128};
  for (const auto& s : l.segments()) {
    left += geom::overlap_area(s.rect(), lhalf);
    right += geom::overlap_area(s.rect(), rhalf);
  }
  EXPECT_GT(left, 1.5 * right);
}

TEST(Synthetic, CanonicalTestcasesAreStable) {
  const Layout t2 = make_testcase_t2();
  EXPECT_EQ(t2.die().width(), 128.0);
  EXPECT_GT(t2.num_nets(), 80u);
  const Layout t2b = make_testcase_t2();
  EXPECT_EQ(t2.num_segments(), t2b.num_segments());
}

TEST(Synthetic, TwoLayerMode) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 60;
  cfg.seed = 7;
  cfg.separate_branch_layer = true;
  const Layout l = generate_synthetic_layout(cfg);
  ASSERT_EQ(l.num_layers(), 2u);
  EXPECT_EQ(l.layer(1).preferred_direction, Orientation::kVertical);
  // Layer discipline: m3 horizontal only, m4 vertical only.
  int on_m4 = 0;
  for (const auto& s : l.segments()) {
    if (s.layer == 0)
      EXPECT_EQ(s.orientation(), Orientation::kHorizontal);
    else {
      EXPECT_EQ(s.orientation(), Orientation::kVertical);
      ++on_m4;
    }
  }
  EXPECT_GT(on_m4, 10);
  // Same-layer spacing still holds per layer.
  const auto& segs = l.segments();
  for (std::size_t i = 0; i < segs.size(); ++i)
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      if (segs[i].net == segs[j].net || segs[i].layer != segs[j].layer)
        continue;
      EXPECT_FALSE(geom::overlaps_strictly(
          segs[i].rect().inflated(cfg.min_spacing_um / 2),
          segs[j].rect().inflated(cfg.min_spacing_um / 2)))
          << i << " vs " << j;
    }
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticLayoutConfig cfg;
  cfg.wire_width_um = 3.0;  // wider than the track pitch allows
  EXPECT_THROW(generate_synthetic_layout(cfg), Error);
  SyntheticLayoutConfig cfg2;
  cfg2.min_sinks = 4;
  cfg2.max_sinks = 1;
  EXPECT_THROW(generate_synthetic_layout(cfg2), Error);
}

}  // namespace
}  // namespace pil::layout

// Randomized whole-flow property tests: for a sweep of generated layouts
// and configurations, the invariants that must hold regardless of geometry:
// density parity across methods, DRC-clean placements, solver orderings,
// evaluator consistency, determinism.

#include <gtest/gtest.h>

#include <algorithm>

#include "paper_shape.hpp"
#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

struct Scenario {
  std::uint64_t seed;
  double window_um;
  int r;
  bool two_layer;
  Objective objective;
};

void PrintTo(const Scenario& s, std::ostream* os) {
  *os << "seed=" << s.seed << " W=" << s.window_um << " r=" << s.r
      << (s.two_layer ? " two-layer" : "")
      << (s.objective == Objective::kWeighted ? " weighted" : "");
}

class FlowProperty : public ::testing::TestWithParam<Scenario> {};

Layout make_layout(const Scenario& s) {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 70;
  cfg.seed = s.seed;
  cfg.separate_branch_layer = s.two_layer;
  return layout::generate_synthetic_layout(cfg);
}

TEST_P(FlowProperty, InvariantsHold) {
  const Scenario s = GetParam();
  const Layout l = make_layout(s);
  FlowConfig config;
  config.window_um = s.window_um;
  config.r = s.r;
  config.objective = s.objective;
  config.seed = s.seed * 13 + 7;

  const std::vector<Method> methods = {Method::kNormal, Method::kIlp1,
                                       Method::kIlp2, Method::kGreedy,
                                       Method::kConvex};
  const FlowResult res = run_pil_fill_flow(l, config, methods);

  // --- density parity: identical per-tile counts, no shortfall ------------
  for (const auto& mr : res.methods) {
    EXPECT_EQ(mr.shortfall, 0);
    EXPECT_EQ(mr.placed, res.methods[0].placed);
    EXPECT_EQ(mr.placement.features_per_tile,
              res.methods[0].placement.features_per_tile);
    EXPECT_EQ(mr.impact.unmapped, 0);
    EXPECT_EQ(mr.impact.features, mr.placed);
  }

  // --- placements are DRC-clean -------------------------------------------
  std::vector<geom::Rect> wires;
  for (const auto& seg : l.segments())
    if (seg.layer == config.layer) wires.push_back(seg.rect());
  for (const auto& mr : res.methods) {
    const auto& feats = mr.placement.features;
    for (std::size_t i = 0; i < feats.size(); i += 13) {  // sampled
      EXPECT_TRUE(l.die().contains(feats[i]));
      const geom::Rect guard =
          feats[i].inflated(config.rules.buffer_um - 1e-9);
      for (const auto& w : wires)
        ASSERT_FALSE(geom::overlaps_strictly(guard, w))
            << to_string(mr.method);
    }
    // No two features overlap (same-x columns stack disjointly; cross-x
    // columns are separated by the grid pitch).
    std::vector<geom::Rect> sorted = feats;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.xlo != b.xlo ? a.xlo < b.xlo : a.ylo < b.ylo;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i)
      ASSERT_FALSE(geom::overlaps_strictly(sorted[i - 1], sorted[i]));
  }

  // --- method ordering on the optimized metric ----------------------------
  auto metric = [&](const MethodResult& mr) {
    return s.objective == Objective::kWeighted ? mr.impact.weighted_delay_ps
                                               : mr.impact.delay_ps;
  };
  const double normal = metric(res.methods[0]);
  const double ilp2 = metric(res.methods[2]);
  const double greedy = metric(res.methods[3]);
  const double convex = metric(res.methods[4]);
  if (normal > 1e-9) {
    EXPECT_LE(ilp2, normal * 1.001);
    EXPECT_LE(greedy, normal * 1.001);
    // ILP-II and Convex agree up to cross-tile recombination noise.
    EXPECT_NEAR(convex, ilp2, 0.05 * std::max(ilp2, 1e-12) + 1e-12);
  }

  // --- determinism ---------------------------------------------------------
  const FlowResult again = run_pil_fill_flow(l, config, {Method::kNormal});
  EXPECT_DOUBLE_EQ(metric(again.methods[0]), normal);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlowProperty,
    ::testing::Values(
        Scenario{1, 32, 2, false, Objective::kNonWeighted},
        Scenario{2, 32, 4, false, Objective::kNonWeighted},
        Scenario{3, 32, 8, false, Objective::kWeighted},
        Scenario{4, 20, 2, false, Objective::kWeighted},
        Scenario{5, 20, 4, true, Objective::kNonWeighted},
        Scenario{6, 32, 2, true, Objective::kWeighted},
        Scenario{7, 24, 3, false, Objective::kNonWeighted},
        Scenario{8, 16, 2, true, Objective::kNonWeighted},
        Scenario{9, 48, 6, false, Objective::kWeighted}));

// The Table 1/2 shape checks of test_integration.cpp's T2 tests, on the
// larger T1 testcase.
TEST(FlowT1, PaperOrderingIlp2BestGreedyBetween) {
  paper_shape::expect_paper_ordering(layout::make_testcase_t1());
}

TEST(FlowT1, FinerDissectionShrinksTheWin) {
  paper_shape::expect_finer_dissection_shrinks_the_win(
      layout::make_testcase_t1());
}

}  // namespace
}  // namespace pil::pilfill

// Tests for the window-constrained global annealer.

#include <gtest/gtest.h>

#include <numeric>

#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

FlowConfig flow(int r) {
  FlowConfig c;
  c.window_um = 32;
  c.r = r;
  return c;
}

TEST(Anneal, NeverWorseThanTheConvexStart) {
  const Layout l = layout::make_testcase_t2();
  for (const int r : {2, 4, 8}) {
    FillSession session(l, flow(r));
    const FlowResult base = session.solve({Method::kConvex});
    const AnnealFlowResult ann = run_annealed_pil_fill_flow(session);
    EXPECT_LE(ann.final_cost_ps, ann.initial_cost_ps + 1e-12) << "r=" << r;
    EXPECT_LE(ann.impact.delay_ps,
              base.methods[0].impact.delay_ps * 1.001 + 1e-12)
        << "r=" << r;
  }
}

TEST(Anneal, RecoversFineDissectionLoss) {
  // The headline: at r=8 the per-tile decomposition overpays and the
  // window-constrained annealer claws a large fraction back.
  const Layout l = layout::make_testcase_t2();
  FillSession session(l, flow(8));
  const FlowResult base = session.solve({Method::kIlp2});
  const AnnealFlowResult ann = run_annealed_pil_fill_flow(session);
  EXPECT_LT(ann.impact.delay_ps, 0.85 * base.methods[0].impact.delay_ps);
}

TEST(Anneal, TotalFillCountIsPreserved) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session(l, flow(4));
  const AnnealFlowResult ann = run_annealed_pil_fill_flow(session);
  const long long placed = std::accumulate(
      ann.features_per_tile.begin(), ann.features_per_tile.end(), 0LL);
  EXPECT_EQ(placed, session.target().total_features);
  EXPECT_EQ(static_cast<long long>(ann.features.size()), placed);
  EXPECT_EQ(ann.impact.unmapped, 0);
}

TEST(Anneal, DensityBandIsPreserved) {
  // Inter-tile moves may reshuffle per-tile counts, but every window must
  // stay within [starting floor, targeter cap] (site accounting over the
  // session's wires and metal blockages), macro metal included.
  layout::SyntheticLayoutConfig with_macros = layout::testcase_t2_config();
  with_macros.num_macros = 2;
  for (const Layout& l : {layout::make_testcase_t2(),
                          layout::generate_synthetic_layout(with_macros)}) {
    const FillSession session(l, flow(4));
    const AnnealFlowResult ann = run_annealed_pil_fill_flow(session);

    const grid::Dissection& dis = session.dissection();
    const double fa = fill::FillRules{}.feature_area();
    grid::DensityMap after = session.wires();
    grid::DensityMap start = session.wires();
    for (int t = 0; t < dis.num_tiles(); ++t) {
      after.add_area(dis.tile_unflat(t), ann.features_per_tile[t] * fa);
      start.add_area(dis.tile_unflat(t),
                     session.target().features_per_tile[t] * fa);
    }

    const double eps = 1e-9;
    const std::size_t blockages = l.blockages().size();
    EXPECT_GE(after.stats().min_density, start.stats().min_density - eps)
        << blockages << " blockage(s)";
    EXPECT_LE(after.stats().max_density,
              session.target().upper_bound_used + eps)
        << blockages << " blockage(s)";
  }
}

TEST(Anneal, DeterministicPerSeed) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session(l, flow(8));
  const AnnealFlowResult a = run_annealed_pil_fill_flow(session);
  const AnnealFlowResult b = run_annealed_pil_fill_flow(session);
  EXPECT_DOUBLE_EQ(a.final_cost_ps, b.final_cost_ps);
  EXPECT_EQ(a.features_per_tile, b.features_per_tile);
  AnnealConfig other;
  other.seed = 999;
  const AnnealFlowResult c = run_annealed_pil_fill_flow(session, other);
  // Different seed explores differently but stays in the same ballpark.
  EXPECT_NEAR(c.final_cost_ps, a.final_cost_ps, 0.25 * a.final_cost_ps);
}

TEST(Anneal, PlacementIsDesignRuleClean) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session(l, flow(8));
  const AnnealFlowResult ann = run_annealed_pil_fill_flow(session);
  fill::CheckOptions opt;
  const fill::CheckReport r =
      fill::check_fill(l, ann.features, opt, &session.dissection());
  EXPECT_TRUE(r.clean()) << (r.violations.empty()
                                 ? ""
                                 : r.violations[0].describe());
}

TEST(Anneal, ZeroBudgetReturnsTheStart) {
  const Layout l = layout::make_testcase_t2();
  AnnealConfig cfg;
  cfg.moves_per_feature = 0;
  const AnnealFlowResult ann =
      run_annealed_pil_fill_flow(FillSession(l, flow(4)), cfg);
  EXPECT_DOUBLE_EQ(ann.final_cost_ps, ann.initial_cost_ps);
  EXPECT_EQ(ann.moves_tried, 0);
}

TEST(Anneal, RejectsUnsupportedConfigs) {
  const Layout l = layout::make_testcase_t2();
  // Both sessions prep fine; the annealer refuses them.
  FlowConfig grounded = flow(4);
  grounded.style = cap::FillStyle::kGrounded;
  const FillSession grounded_session(l, grounded);
  EXPECT_THROW(run_annealed_pil_fill_flow(grounded_session), Error);
  FlowConfig mode2 = flow(4);
  mode2.solver_mode = fill::SlackMode::kII;
  const FillSession mode2_session(l, mode2);
  EXPECT_THROW(run_annealed_pil_fill_flow(mode2_session), Error);
}

}  // namespace
}  // namespace pil::pilfill

// Tests for the MVDC formulation (min variation under a delay constraint).

#include <gtest/gtest.h>

#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

FlowConfig base_flow() {
  FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  return flow;
}

/// A session that only feeds run_mvdc_fill. MVDC targets and builds its
/// own tile pools, so all-zero requirements let prep skip targeting and
/// the instance build.
FillSession mvdc_session(const Layout& l, FlowConfig flow = base_flow()) {
  flow.required_per_tile.assign(
      grid::Dissection(l.die(), flow.window_um, flow.r).num_tiles(), 0);
  return FillSession(l, flow);
}

TEST(Mvdc, UnlimitedBudgetMatchesPureMinVarQuality) {
  const Layout l = layout::make_testcase_t2();
  FillSession session(l, base_flow());
  const MvdcResult r = run_mvdc_fill(session, MvdcConfig{});
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_GT(r.placed, 0);
  // Uniformity improves and stays within the cap (up to boundary-straddling
  // features: the cap is enforced on site accounting, drawn area may spill
  // a few features' worth into neighboring windows).
  const double straddle_tol =
      15 * fill::FillRules{}.feature_area() / (32.0 * 32.0);
  EXPECT_LT(r.density_after.variation(), session.wires().stats().variation());
  EXPECT_LE(r.density_after.max_density, r.upper_bound_used + straddle_tol);
  // With no budget pressure, the min density matches what the plain
  // Monte-Carlo targeter achieves (same windows, same capacities).
  const FlowResult mc = session.solve({Method::kConvex});
  EXPECT_NEAR(r.density_after.min_density,
              mc.methods[0].density_after.min_density, 0.01);
}

TEST(Mvdc, ZeroBudgetSpendsOnlyFreeColumns) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session = mvdc_session(l);
  MvdcConfig cfg;
  cfg.delay_budget_ps = 0.0;
  const MvdcResult r = run_mvdc_fill(session, cfg);
  // Zero-cost (boundary) columns are still usable; coupling columns are not.
  EXPECT_DOUBLE_EQ(r.delay_spent_ps, 0.0);
  EXPECT_NEAR(r.impact.delay_ps, 0.0, 1e-12);
  EXPECT_GT(r.placed, 0);
  // And the density achieved is worse than with an unlimited budget.
  const MvdcResult full = run_mvdc_fill(session, MvdcConfig{});
  EXPECT_LT(r.density_after.min_density, full.density_after.min_density);
}

TEST(Mvdc, BudgetIsRespected) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session = mvdc_session(l);
  for (const double budget : {0.01, 0.05, 0.2}) {
    MvdcConfig cfg;
    cfg.delay_budget_ps = budget;
    const MvdcResult r = run_mvdc_fill(session, cfg);
    EXPECT_LE(r.delay_spent_ps, budget + 1e-12) << budget;
  }
}

TEST(Mvdc, DensityMonotoneInBudget) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session = mvdc_session(l);
  double prev_min = -1;
  long long prev_placed = -1;
  for (const double budget : {0.0, 0.02, 0.1, 1.0}) {
    MvdcConfig cfg;
    cfg.delay_budget_ps = budget;
    const MvdcResult r = run_mvdc_fill(session, cfg);
    EXPECT_GE(r.density_after.min_density, prev_min - 1e-12) << budget;
    EXPECT_GE(r.placed, prev_placed) << budget;
    prev_min = r.density_after.min_density;
    prev_placed = r.placed;
  }
}

TEST(Mvdc, ExplicitTargetsHonored) {
  // L and U come from FlowConfig::target, as for every targeting engine.
  const Layout l = layout::make_testcase_t2();
  FlowConfig flow = base_flow();
  flow.target.lower_target = 0.12;
  flow.target.upper_bound = 0.2;
  const MvdcResult r = run_mvdc_fill(mvdc_session(l, flow), MvdcConfig{});
  const double straddle_tol =
      15 * fill::FillRules{}.feature_area() / (32.0 * 32.0);
  EXPECT_DOUBLE_EQ(r.lower_target_used, 0.12);
  EXPECT_DOUBLE_EQ(r.upper_bound_used, 0.2);
  EXPECT_LE(r.density_after.max_density, 0.2 + straddle_tol);
  EXPECT_GE(r.density_after.min_density, 0.12 - straddle_tol);
}

/// Maximum window density with each feature's area in the tile holding its
/// centre (the tile its slack site belongs to), on top of the session's
/// wires and metal blockages.
double site_counted_max(const FillSession& session,
                        const std::vector<geom::Rect>& features) {
  grid::DensityMap density = session.wires();
  for (const geom::Rect& f : features)
    density.add_area(session.dissection().tile_at(f.center()),
                     session.config().rules.feature_area());
  return density.stats().max_density;
}

TEST(Mvdc, KeepsEveryWindowUnderTheSessionCap) {
  // MVDC's U is the session's, and no window passes it: on clipped edge
  // windows (W = 20 on the 128 um die) and with macro metal in the windows.
  layout::SyntheticLayoutConfig with_macros = layout::testcase_t2_config();
  with_macros.num_macros = 2;
  const Layout t2 = layout::make_testcase_t2();
  const Layout t2_macros = layout::generate_synthetic_layout(with_macros);
  struct Row {
    const Layout* layout;
    int window_um;
    int r;
  };
  for (const Row& row : {Row{&t2, 20, 2}, Row{&t2, 20, 4}, Row{&t2, 20, 8},
                         Row{&t2_macros, 32, 2}, Row{&t2_macros, 32, 4}}) {
    FlowConfig flow;
    flow.window_um = row.window_um;
    flow.r = row.r;
    const FillSession session(*row.layout, flow);
    const MvdcResult r = run_mvdc_fill(session, MvdcConfig{});
    const double cap = session.target().upper_bound_used;
    const std::string label = (row.layout == &t2 ? "T2 " : "T2+macros ") +
                              std::to_string(row.window_um) + "/" +
                              std::to_string(row.r);
    EXPECT_EQ(r.upper_bound_used, cap) << label;
    EXPECT_LE(site_counted_max(session, r.features), cap + 1e-9) << label;
  }
}

TEST(Mvdc, WeightedBudgetHonoursNetCriticality) {
  // With every net's criticality 0, every weighted marginal is 0: a zero
  // budget buys as much fill as an unlimited one.
  const Layout l = layout::make_testcase_t2();
  FlowConfig flow = base_flow();
  flow.objective = Objective::kWeighted;
  flow.net_criticality.assign(l.num_nets(), 0.0);
  const FillSession session = mvdc_session(l, flow);
  MvdcConfig zero;
  zero.delay_budget_ps = 0.0;
  const MvdcResult none = run_mvdc_fill(session, zero);
  const MvdcResult full = run_mvdc_fill(session, MvdcConfig{});
  EXPECT_GT(full.placed, 0);
  EXPECT_EQ(none.placed, full.placed);
  EXPECT_FALSE(none.budget_exhausted);
}

TEST(Mvdc, SpentEstimateTracksExactScore) {
  // The allocator's per-tile estimate and the exact evaluator disagree only
  // through cross-tile column recombination; they must be within ~25%.
  const Layout l = layout::make_testcase_t2();
  MvdcConfig cfg;
  cfg.delay_budget_ps = 0.1;
  const MvdcResult r = run_mvdc_fill(mvdc_session(l), cfg);
  if (r.delay_spent_ps > 0) {
    EXPECT_GT(r.impact.delay_ps, 0.5 * r.delay_spent_ps);
    EXPECT_LT(r.impact.delay_ps, 2.0 * r.delay_spent_ps);
  }
}

TEST(Mvdc, RejectsBadConfig) {
  const Layout l = layout::make_testcase_t2();
  const FillSession session = mvdc_session(l);
  MvdcConfig cfg;
  cfg.delay_budget_ps = -1;
  EXPECT_THROW(run_mvdc_fill(session, cfg), Error);
  // A grounded-fill session preps fine; MVDC refuses it.
  FlowConfig grounded = base_flow();
  grounded.style = cap::FillStyle::kGrounded;
  const FillSession grounded_session = mvdc_session(l, grounded);
  EXPECT_THROW(run_mvdc_fill(grounded_session, MvdcConfig{}), Error);
}

}  // namespace
}  // namespace pil::pilfill

// Tests for capacitance-budgeted PIL-Fill (the paper's Section-7 extension).

#include <gtest/gtest.h>

#include <numeric>

#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

const fill::FillRules kRules{};
const cap::CouplingModel kModel(3.9, 0.5);

/// Two tiles sharing net 0 as the below-line of their only costly column.
std::vector<TileInstance> shared_net_instances() {
  std::vector<TileInstance> out;
  for (int t = 0; t < 2; ++t) {
    TileInstance inst;
    inst.tile_flat = t;
    inst.required = 2;
    InstanceColumn costly;
    costly.column = 2 * t;
    costly.num_sites = 2;
    costly.x = t;
    costly.d = 2.5;
    costly.two_sided = true;
    costly.below_net = 0;
    costly.above_net = 1 + t;
    costly.res_nonweighted = 100;
    costly.res_weighted = 100;
    inst.cols.push_back(costly);
    InstanceColumn free_col;
    free_col.column = 2 * t + 1;
    free_col.num_sites = 1;
    free_col.x = t + 0.5;
    inst.cols.push_back(free_col);
    out.push_back(inst);
  }
  return out;
}

SolverContext make_ctx(cap::ColumnCapLut& lut) {
  SolverContext ctx;
  ctx.model = &kModel;
  ctx.lut = &lut;
  ctx.rules = kRules;
  return ctx;
}

TEST(Budgeted, UnbudgetedPlacesEverything) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const auto instances = shared_net_instances();
  const BudgetedResult r =
      solve_budgeted(instances, make_ctx(lut), BudgetedConfig{}, 3);
  EXPECT_EQ(r.placed, 4);
  EXPECT_EQ(r.shortfall, 0);
  EXPECT_DOUBLE_EQ(r.max_budget_utilization, 0.0);  // nothing budgeted
  // Free columns used first in each tile.
  EXPECT_EQ(r.counts[0][1], 1);
  EXPECT_EQ(r.counts[1][1], 1);
}

TEST(Budgeted, HardBudgetIsNeverViolated) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const auto instances = shared_net_instances();
  // Net 0 faces costly columns in BOTH tiles; give it room for roughly one
  // feature's coupling only.
  const double one_feature =
      kModel.column_delta_cap_ff(1, kRules.feature_um, 2.5);
  BudgetedConfig cfg;
  cfg.net_cap_budget_ff = {1.5 * one_feature};
  const BudgetedResult r =
      solve_budgeted(instances, make_ctx(lut), cfg, 3);
  EXPECT_LE(r.net_cap_used_ff[0], 1.5 * one_feature + 1e-12);
  EXPECT_LE(r.max_budget_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.shortfall, 0);  // density gives way, the budget never does
}

TEST(Budgeted, ZeroBudgetBlocksAllCoupling) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const auto instances = shared_net_instances();
  BudgetedConfig cfg;
  cfg.default_budget_ff = 0.0;
  const BudgetedResult r =
      solve_budgeted(instances, make_ctx(lut), cfg, 3);
  // Only the two free columns can take fill.
  EXPECT_EQ(r.placed, 2);
  EXPECT_EQ(r.shortfall, 2);
  for (const double used : r.net_cap_used_ff) EXPECT_DOUBLE_EQ(used, 0.0);
}

TEST(Budgeted, SharedNetCouplesTiles) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const auto instances = shared_net_instances();
  // Budget for exactly one costly feature on net 0: only ONE of the two
  // tiles can use its costly column, even though each tile alone would fit.
  const double one_feature =
      kModel.column_delta_cap_ff(1, kRules.feature_um, 2.5);
  BudgetedConfig cfg;
  cfg.net_cap_budget_ff = {1.01 * one_feature};
  const BudgetedResult r =
      solve_budgeted(instances, make_ctx(lut), cfg, 3);
  const int costly_total = r.counts[0][0] + r.counts[1][0];
  EXPECT_EQ(costly_total, 1);
  EXPECT_EQ(r.placed, 3);  // 2 free + 1 costly
}

TEST(Budgeted, RespectsCapacitiesAndRequirements) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const auto instances = shared_net_instances();
  const BudgetedResult r =
      solve_budgeted(instances, make_ctx(lut), BudgetedConfig{}, 3);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    int placed = 0;
    for (std::size_t k = 0; k < instances[i].cols.size(); ++k) {
      EXPECT_GE(r.counts[i][k], 0);
      EXPECT_LE(r.counts[i][k], instances[i].cols[k].num_sites);
      placed += r.counts[i][k];
    }
    EXPECT_LE(placed, instances[i].required);
  }
}

TEST(Budgeted, RequiresFloatingStyle) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  SolverContext ctx = make_ctx(lut);
  ctx.style = cap::FillStyle::kGrounded;
  EXPECT_THROW(solve_budgeted(shared_net_instances(), ctx, {}, 3), Error);
}

// ----------------------------------------------------- delay -> budgets ----

TEST(BudgetsFromDelay, ConservativeBound) {
  const Layout l = layout::make_testcase_t2();
  const auto pieces = fill::flatten_pieces(rctree::build_all_trees(l));
  const auto budgets = budgets_from_delay_ps(
      pieces, static_cast<int>(l.num_nets()), 10.0);
  ASSERT_EQ(budgets.size(), l.num_nets());
  for (std::size_t n = 0; n < budgets.size(); ++n) {
    EXPECT_GT(budgets[n], 0.0);
    EXPECT_TRUE(std::isfinite(budgets[n]));
  }
  // Doubling the delay budget doubles every cap budget.
  const auto twice = budgets_from_delay_ps(
      pieces, static_cast<int>(l.num_nets()), 20.0);
  for (std::size_t n = 0; n < budgets.size(); ++n)
    EXPECT_NEAR(twice[n], 2 * budgets[n], 1e-12);
}

// ------------------------------------------------------------ flow level ----

TEST(BudgetedFlow, LooseBudgetsMatchConvex) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 4;
  // One session: both flows fill the same per-tile requirements.
  FillSession session(l, config);
  const FlowResult convex = session.solve({Method::kConvex});
  const BudgetedFlowResult budgeted =
      run_budgeted_pil_fill_flow(session, BudgetedConfig{});
  EXPECT_EQ(budgeted.allocation.placed, convex.methods[0].placed);
  EXPECT_EQ(budgeted.allocation.shortfall, 0);
  EXPECT_NEAR(budgeted.impact.delay_ps, convex.methods[0].impact.delay_ps,
              0.02 * convex.methods[0].impact.delay_ps + 1e-12);
}

TEST(BudgetedFlow, EvaluatorPerNetCouplingDominatesAllocatorAccounting) {
  // The allocator accounts per tile part; the evaluator recombines columns
  // split across tiles, and the floating model is superadditive -- so the
  // evaluator's per-net coupling is a per-net upper bound of the
  // allocator's, and equal where no column is split.
  const Layout l = layout::make_testcase_t2();
  FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const FillSession session(l, flow);
  const BudgetedFlowResult res =
      run_budgeted_pil_fill_flow(session, BudgetedConfig{});

  const auto exact = session.evaluator().per_net_coupling_ff(
      res.features, static_cast<int>(l.num_nets()));

  double alloc_total = 0, exact_total = 0;
  for (std::size_t n = 0; n < l.num_nets(); ++n) {
    EXPECT_GE(exact[n], res.allocation.net_cap_used_ff[n] - 1e-12) << n;
    alloc_total += res.allocation.net_cap_used_ff[n];
    exact_total += exact[n];
  }
  EXPECT_GT(alloc_total, 0);
  EXPECT_LT(exact_total, 1.5 * alloc_total);  // recombination is bounded
}

TEST(BudgetedFlow, TightBudgetsCapPerNetCoupling) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 4;
  const FillSession session(l, config);

  BudgetedConfig loose;
  const BudgetedFlowResult a = run_budgeted_pil_fill_flow(session, loose);

  BudgetedConfig tight;
  tight.net_cap_budget_ff = budgets_from_delay_ps(
      session.pieces(), static_cast<int>(l.num_nets()), 0.0005);
  const BudgetedFlowResult b = run_budgeted_pil_fill_flow(session, tight);

  // Hard guarantee: every net within its budget.
  for (std::size_t n = 0; n < tight.net_cap_budget_ff.size(); ++n)
    EXPECT_LE(b.allocation.net_cap_used_ff[n],
              tight.net_cap_budget_ff[n] + 1e-9);
  EXPECT_LE(b.allocation.max_budget_utilization, 1.0 + 1e-9);
  // The cap binds: less coupling in total than the unbudgeted run.
  double used_a = 0, used_b = 0;
  for (const double u : a.allocation.net_cap_used_ff) used_a += u;
  for (const double u : b.allocation.net_cap_used_ff) used_b += u;
  EXPECT_LT(used_b, used_a);
  EXPECT_GE(b.allocation.shortfall, 0);
}

}  // namespace
}  // namespace pil::pilfill

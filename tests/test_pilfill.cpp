// Tests for pil/pilfill: instance construction, the four solution methods,
// the convex-allocation extension, and the delay-impact evaluator.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "pil/pilfill/driver.hpp"
#include "pil/pilfill/evaluate.hpp"
#include "pil/pilfill/instance.hpp"
#include "pil/pilfill/solvers.hpp"
#include "pil/layout/synthetic.hpp"

namespace pil::pilfill {
namespace {

using fill::FillRules;
using fill::SlackColumns;
using fill::SlackMode;
using grid::Dissection;
using layout::Layout;

const FillRules kRules{};
const cap::CouplingModel kModel(3.9, 0.5);

/// Hand-built instance: `caps[k]` sites per column, separation `d[k]`,
/// resistance factor `res[k]` (0 = one-sided / free column).
TileInstance make_instance(int required, std::vector<int> caps,
                           std::vector<double> d, std::vector<double> res) {
  TileInstance inst;
  inst.tile_flat = 0;
  inst.required = required;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    InstanceColumn c;
    c.column = static_cast<int>(k);
    c.first_site = 0;
    c.num_sites = caps[k];
    c.x = static_cast<double>(k);
    c.d = d[k];
    c.two_sided = res[k] > 0;
    c.res_nonweighted = res[k];
    c.res_weighted = 2 * res[k];
    c.res_exact = 3 * res[k];
    inst.cols.push_back(c);
  }
  return inst;
}

SolverContext make_ctx(cap::ColumnCapLut& lut,
                       Objective obj = Objective::kNonWeighted) {
  SolverContext ctx;
  ctx.model = &kModel;
  ctx.lut = &lut;
  ctx.rules = kRules;
  ctx.objective = obj;
  return ctx;
}

/// Exact objective of a counts vector under the LUT model.
double lut_cost(const TileInstance& inst, const std::vector<int>& counts,
                Objective obj = Objective::kNonWeighted) {
  double total = 0;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const auto& c = inst.cols[k];
    if (!c.two_sided || counts[k] == 0) continue;
    const double rf = obj == Objective::kWeighted ? c.res_weighted
                                                  : c.res_nonweighted;
    total += kModel.column_delta_cap_ff(counts[k], kRules.feature_um, c.d) * rf;
  }
  return total;
}

/// Brute-force optimal LUT cost over all feasible allocations.
double brute_force_optimum(const TileInstance& inst,
                           Objective obj = Objective::kNonWeighted) {
  const int n = static_cast<int>(inst.cols.size());
  std::vector<int> m(n, 0);
  double best = 1e100;
  const int f = std::min(inst.required, inst.capacity());
  while (true) {
    if (std::accumulate(m.begin(), m.end(), 0) == f)
      best = std::min(best, lut_cost(inst, m, obj));
    int k = 0;
    while (k < n && ++m[k] > inst.cols[k].num_sites) m[k++] = 0;
    if (k == n) break;
  }
  return best;
}

// -------------------------------------------------------------- methods ----

TEST(Solvers, AllMethodsPlaceExactlyRequired) {
  const TileInstance inst =
      make_instance(5, {3, 3, 3}, {2.5, 3.5, 8.5}, {100, 200, 50});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  for (const Method m : {Method::kNormal, Method::kIlp1, Method::kIlp2,
                         Method::kGreedy, Method::kConvex}) {
    const TileSolveResult r = solve_tile(m, inst, ctx, rng);
    EXPECT_EQ(r.placed, 5) << to_string(m);
    EXPECT_EQ(r.shortfall, 0) << to_string(m);
    for (std::size_t k = 0; k < r.counts.size(); ++k)
      EXPECT_LE(r.counts[k], inst.cols[k].num_sites);
  }
}

TEST(Solvers, ShortfallWhenCapacityInsufficient) {
  const TileInstance inst = make_instance(10, {2, 2}, {2.5, 2.5}, {10, 10});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  for (const Method m : {Method::kNormal, Method::kIlp1, Method::kIlp2,
                         Method::kGreedy, Method::kConvex}) {
    const TileSolveResult r = solve_tile(m, inst, ctx, rng);
    EXPECT_EQ(r.placed, 4) << to_string(m);
    EXPECT_EQ(r.shortfall, 6) << to_string(m);
  }
}

TEST(Solvers, ZeroRequiredPlacesNothing) {
  const TileInstance inst = make_instance(0, {3}, {2.5}, {10});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  for (const Method m : {Method::kNormal, Method::kIlp1, Method::kIlp2,
                         Method::kGreedy, Method::kConvex})
    EXPECT_EQ(solve_tile(m, inst, ctx, rng).placed, 0);
}

TEST(Solvers, FreeColumnsAbsorbFillFirst) {
  // One costly two-sided column, one free boundary column: every PIL method
  // must use the free column exclusively when it suffices.
  const TileInstance inst = make_instance(3, {3, 4}, {2.5, 0}, {500, 0});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  for (const Method m :
       {Method::kIlp1, Method::kIlp2, Method::kGreedy, Method::kConvex}) {
    const TileSolveResult r = solve_tile(m, inst, ctx, rng);
    EXPECT_EQ(r.counts[1], 3) << to_string(m);
    EXPECT_EQ(r.counts[0], 0) << to_string(m);
  }
}

TEST(Solvers, Ilp2FindsTheLutOptimum) {
  const TileInstance inst =
      make_instance(6, {3, 2, 4}, {2.5, 5.5, 9.5}, {300, 120, 80});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  const TileSolveResult r = solve_tile(Method::kIlp2, inst, ctx, rng);
  EXPECT_NEAR(lut_cost(inst, r.counts), brute_force_optimum(inst), 1e-12);
}

TEST(Solvers, ConvexMatchesIlp2) {
  const TileInstance inst =
      make_instance(6, {3, 2, 4}, {2.5, 5.5, 9.5}, {300, 120, 80});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  const double ilp2 =
      lut_cost(inst, solve_tile(Method::kIlp2, inst, ctx, rng).counts);
  const double convex =
      lut_cost(inst, solve_tile(Method::kConvex, inst, ctx, rng).counts);
  EXPECT_NEAR(ilp2, convex, 1e-12);
}

TEST(Solvers, GreedyNeverBeatsIlp2) {
  const TileInstance inst =
      make_instance(7, {3, 3, 3, 3}, {2.5, 3.5, 6.5, 12.5}, {40, 400, 90, 30});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  const double ilp2 =
      lut_cost(inst, solve_tile(Method::kIlp2, inst, ctx, rng).counts);
  const double greedy =
      lut_cost(inst, solve_tile(Method::kGreedy, inst, ctx, rng).counts);
  EXPECT_LE(ilp2, greedy + 1e-12);
}

TEST(Solvers, Ilp1OptimalForItsOwnLinearModel) {
  const TileInstance inst =
      make_instance(6, {3, 2, 4}, {2.5, 5.5, 9.5}, {300, 120, 80});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  const SolverContext ctx = make_ctx(lut);
  Rng rng(1);
  const TileSolveResult r = solve_tile(Method::kIlp1, inst, ctx, rng);

  auto linear_cost = [&](const std::vector<int>& counts) {
    double total = 0;
    for (std::size_t k = 0; k < inst.cols.size(); ++k) {
      const auto& c = inst.cols[k];
      if (!c.two_sided) continue;
      total += kModel.column_delta_cap_linear_ff(counts[k],
                                                 kRules.feature_um, c.d) *
               c.res_nonweighted;
    }
    return total;
  };
  // Brute force under the linear objective.
  std::vector<int> m(inst.cols.size(), 0);
  double best = 1e100;
  while (true) {
    if (std::accumulate(m.begin(), m.end(), 0) == 6)
      best = std::min(best, linear_cost(m));
    std::size_t k = 0;
    while (k < m.size() && ++m[k] > inst.cols[k].num_sites) m[k++] = 0;
    if (k == m.size()) break;
  }
  EXPECT_NEAR(linear_cost(r.counts), best, 1e-12);
}

TEST(Solvers, WeightedObjectiveChangesTheChoice) {
  // Column 0: low non-weighted res but (by construction res_weighted = 2x)
  // the instance maker scales uniformly, so build a custom one instead.
  TileInstance inst = make_instance(2, {2, 2}, {3.5, 3.5}, {100, 150});
  inst.cols[0].res_weighted = 1000;  // heavy multi-sink line
  inst.cols[1].res_weighted = 150;
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  Rng rng(1);
  const TileSolveResult nonw =
      solve_tile(Method::kIlp2, inst, make_ctx(lut), rng);
  const TileSolveResult wtd = solve_tile(
      Method::kIlp2, inst, make_ctx(lut, Objective::kWeighted), rng);
  EXPECT_EQ(nonw.counts[0], 2);  // cheapest non-weighted
  EXPECT_EQ(wtd.counts[0], 0);   // avoided under weighting
  EXPECT_EQ(wtd.counts[1], 2);
}

TEST(Solvers, NormalIsDeterministicPerSeed) {
  const TileInstance inst =
      make_instance(4, {5, 5}, {2.5, 8.5}, {100, 100});
  Rng a(9), b(9), c(10);
  const auto ra = solve_tile_normal(inst, a);
  const auto rb = solve_tile_normal(inst, b);
  EXPECT_EQ(ra.counts, rb.counts);
  (void)c;
}

// Property: on random instances ILP-II == Convex == brute force.
TEST(SolversProperty, Ilp2ConvexBruteForceAgree) {
  Rng rng(4242);
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  for (int trial = 0; trial < 40; ++trial) {
    const int ncols = 2 + static_cast<int>(rng.uniform_int(0, 2));
    std::vector<int> caps;
    std::vector<double> d, res;
    int total_cap = 0;
    for (int k = 0; k < ncols; ++k) {
      caps.push_back(1 + static_cast<int>(rng.uniform_int(0, 2)));
      total_cap += caps.back();
      d.push_back(caps.back() * kRules.feature_um + 1.0 +
                  rng.uniform_real(0, 8));
      res.push_back(rng.bernoulli(0.8) ? rng.uniform_real(10, 500) : 0.0);
    }
    const int f = static_cast<int>(rng.uniform_int(0, total_cap));
    const TileInstance inst = make_instance(f, caps, d, res);
    const SolverContext ctx = make_ctx(lut);
    Rng solver_rng(1);
    const double opt = brute_force_optimum(inst);
    const double ilp2 =
        lut_cost(inst, solve_tile(Method::kIlp2, inst, ctx, solver_rng).counts);
    const double convex = lut_cost(
        inst, solve_tile(Method::kConvex, inst, ctx, solver_rng).counts);
    EXPECT_NEAR(ilp2, opt, 1e-10) << "trial " << trial;
    EXPECT_NEAR(convex, opt, 1e-10) << "trial " << trial;
    // And every other method is no better than the optimum.
    for (const Method m : {Method::kNormal, Method::kIlp1, Method::kGreedy}) {
      const double cost =
          lut_cost(inst, solve_tile(m, inst, ctx, solver_rng).counts);
      EXPECT_GE(cost, opt - 1e-10) << to_string(m) << " trial " << trial;
    }
  }
}

// ------------------------------------------------------ cost table ----

TEST(CostTable, FloatingMatchesLut) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  SolverContext ctx = make_ctx(lut);
  const auto table = column_cost_table(ctx, 3.5, 4);
  ASSERT_EQ(table.size(), 5u);
  for (int n = 0; n <= 4; ++n)
    EXPECT_DOUBLE_EQ(table[n],
                     kModel.column_delta_cap_ff(n, kRules.feature_um, 3.5));
}

TEST(CostTable, SwitchFactorScales) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  SolverContext ctx = make_ctx(lut);
  ctx.switch_factor = 2.5;
  const auto table = column_cost_table(ctx, 3.5, 3);
  for (int n = 1; n <= 3; ++n)
    EXPECT_NEAR(table[n],
                2.5 * kModel.column_delta_cap_ff(n, kRules.feature_um, 3.5),
                1e-15);
}

TEST(CostTable, GroundedIsAStepFunction) {
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  SolverContext ctx = make_ctx(lut);
  ctx.style = cap::FillStyle::kGrounded;
  const auto table = column_cost_table(ctx, 3.5, 3);
  EXPECT_DOUBLE_EQ(table[0], 0.0);
  EXPECT_GT(table[1], 0.0);
  EXPECT_DOUBLE_EQ(table[1], table[2]);
  EXPECT_DOUBLE_EQ(table[2], table[3]);
}

TEST(Solvers, GreedyHandlesGroundedStyle) {
  // Grounded cost is per-column flat: greedy should fill the fewest
  // columns (concentrate), never spread.
  TileInstance inst = make_instance(3, {3, 3}, {3.5, 3.5}, {100, 100});
  cap::ColumnCapLut lut(kModel, kRules.feature_um);
  SolverContext ctx = make_ctx(lut);
  ctx.style = cap::FillStyle::kGrounded;
  const TileSolveResult r = solve_tile_greedy(inst, ctx);
  EXPECT_EQ(r.placed, 3);
  // One column full, the other nearly empty (3 in one, 0 in the other).
  EXPECT_TRUE((r.counts[0] == 3 && r.counts[1] == 0) ||
              (r.counts[0] == 0 && r.counts[1] == 3));
}

TEST(Evaluator, UnmappedFeaturesAreCountedNotScored) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const SlackColumns slack = fill::extract_slack_columns(
      l, dis, pieces, 0, kRules, SlackMode::kIII);
  const DelayImpactEvaluator eval(slack, pieces, kModel, kRules);
  // A rect centered on a wire centerline: no gap covers that y, so the
  // mapper must reject it rather than mis-bin it.
  const auto& seg = l.segment(0);
  const geom::Point mid{(seg.a.x + seg.b.x) / 2, seg.a.y};
  const DelayImpact impact = eval.evaluate_rects(
      {geom::Rect{mid.x - 0.25, mid.y - 0.25, mid.x + 0.25, mid.y + 0.25}});
  EXPECT_EQ(impact.unmapped, 1);
  EXPECT_DOUBLE_EQ(impact.delay_ps, 0.0);
}

// ------------------------------------------------------------ instances ----

TEST(Instance, BuiltFromRealLayout) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const SlackColumns slack = fill::extract_slack_columns(
      l, dis, pieces, 0, kRules, SlackMode::kIII);
  // Non-uniform criticality in (0, 1], so 1/3 and 1/4 round in C_l * W_l
  // and the weighted factor stays below the exact one.
  std::vector<double> crit(l.num_nets());
  for (std::size_t n = 0; n < crit.size(); ++n) crit[n] = 1.0 / (1 + n % 4);

  int built = 0;
  int two_sided = 0;
  for (int t = 0; t < dis.num_tiles(); ++t) {
    if (slack.tile_parts(t).empty()) continue;
    const TileInstance inst = build_tile_instance(t, 3, slack, pieces, crit);
    EXPECT_EQ(inst.tile_flat, t);
    EXPECT_EQ(inst.cols.size(), slack.tile_parts(t).size());
    for (const auto& c : inst.cols) {
      EXPECT_GT(c.num_sites, 0);
      if (c.two_sided) {
        EXPECT_GT(c.res_nonweighted, 0.0);
        EXPECT_GE(c.res_weighted, 0.0);          // W_l = 0 on wire tails
        EXPECT_GE(c.res_exact, c.res_weighted);  // off-path terms add
        EXPECT_GT(c.d, 2 * kRules.buffer_um);
        // Bit for bit: WirePiece::res_at at the column crossing, then
        // Eq. 13, Eq. 21 and the exact-delay factor, in this operand
        // order. A reassociated or FMA-contracted build differs in the
        // last ulp on some column.
        const fill::SlackColumn& col = slack.columns()[c.column];
        const rctree::WirePiece& b = pieces[col.below_piece];
        const rctree::WirePiece& a = pieces[col.above_piece];
        const geom::Point qb = slack.column_cross_point(col, b);
        const geom::Point qa = slack.column_cross_point(col, a);
        const double rb = b.upstream_res +
                          b.res_per_um * (std::fabs(b.up.x - qb.x) +
                                          std::fabs(b.up.y - qb.y));
        const double ra = a.upstream_res +
                          a.res_per_um * (std::fabs(a.up.x - qa.x) +
                                          std::fabs(a.up.y - qa.y));
        EXPECT_EQ(c.res_nonweighted, rb + ra);
        EXPECT_EQ(c.res_weighted, crit[b.net] * b.downstream_sinks * rb +
                                      crit[a.net] * a.downstream_sinks * ra);
        EXPECT_EQ(c.res_exact, b.downstream_sinks * rb +
                                   a.downstream_sinks * ra +
                                   b.offpath_res_sum + a.offpath_res_sum);
        ++two_sided;
      } else {
        EXPECT_DOUBLE_EQ(c.res_nonweighted, 0.0);
      }
    }
    if (++built > 50) break;
  }
  EXPECT_GT(built, 10);
  EXPECT_GT(two_sided, 0);
}

// ------------------------------------------------------------ evaluator ----

TEST(Evaluator, CountsAndRectsAgree) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const SlackColumns slack = fill::extract_slack_columns(
      l, dis, pieces, 0, kRules, SlackMode::kIII);
  const DelayImpactEvaluator eval(slack, pieces, kModel, kRules);

  // Fill every 5th column halfway; build both count vector and rects.
  std::vector<int> counts(slack.columns().size(), 0);
  std::vector<geom::Rect> rects;
  for (std::size_t ci = 0; ci < counts.size(); ci += 5) {
    const auto& col = slack.columns()[ci];
    counts[ci] = (col.capacity + 1) / 2;
    for (int i = 0; i < counts[ci]; ++i) {
      const double y = col.site_y(i, kRules);
      rects.push_back(geom::Rect{col.x_lo, y, col.x_lo + kRules.feature_um,
                                 y + kRules.feature_um});
    }
  }
  const DelayImpact a = eval.evaluate_counts(counts);
  const DelayImpact b = eval.evaluate_rects(rects);
  EXPECT_EQ(b.unmapped, 0);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.delay_ps, b.delay_ps);
  EXPECT_EQ(a.weighted_delay_ps, b.weighted_delay_ps);
  EXPECT_EQ(a.exact_sink_delay_ps, b.exact_sink_delay_ps);
}

TEST(Evaluator, EmptyPlacementCostsNothing) {
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const SlackColumns slack = fill::extract_slack_columns(
      l, dis, pieces, 0, kRules, SlackMode::kIII);
  const DelayImpactEvaluator eval(slack, pieces, kModel, kRules);
  const DelayImpact impact = eval.evaluate_rects({});
  EXPECT_DOUBLE_EQ(impact.delay_ps, 0.0);
  EXPECT_EQ(impact.features, 0);
}

TEST(Evaluator, MetricsAreOrdered) {
  // exact >= weighted for any placement: the exact sink-delay metric is the
  // weighted one plus non-negative off-path resistance terms. (weighted vs
  // non-weighted has no fixed order: wire tails have W_l = 0.)
  const Layout l = layout::make_testcase_t2();
  pilfill::FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  const FlowResult res =
      run_pil_fill_flow(l, config, {Method::kNormal, Method::kGreedy});
  for (const auto& m : res.methods) {
    EXPECT_GE(m.impact.exact_sink_delay_ps,
              m.impact.weighted_delay_ps - 1e-12);
    EXPECT_GT(m.impact.delay_ps, 0.0);
  }
}

TEST(Evaluator, SuperadditiveAcrossTileSplits) {
  // Filling the same global column from two adjacent tiles must cost at
  // least as much as the sum of the independent per-tile estimates (the
  // fine-dissection fragmentation effect of Section 6).
  const Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  const auto trees = rctree::build_all_trees(l);
  const auto pieces = fill::flatten_pieces(trees);
  const SlackColumns slack = fill::extract_slack_columns(
      l, dis, pieces, 0, kRules, SlackMode::kIII);
  const DelayImpactEvaluator eval(slack, pieces, kModel, kRules);

  for (std::size_t ci = 0; ci < slack.columns().size(); ++ci) {
    const auto& col = slack.columns()[ci];
    if (!col.two_sided() || col.capacity < 2) continue;
    std::vector<int> half(slack.columns().size(), 0);
    std::vector<int> full(slack.columns().size(), 0);
    half[ci] = col.capacity / 2;
    full[ci] = col.capacity;
    const double h = eval.evaluate_counts(half).delay_ps;
    const double f = eval.evaluate_counts(full).delay_ps;
    EXPECT_GE(f, 2 * h - 1e-15) << "column " << ci;
  }
}

}  // namespace
}  // namespace pil::pilfill

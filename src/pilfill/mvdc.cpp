#include "pil/pilfill/mvdc.hpp"

#include <queue>

#include "flow_common.hpp"
#include "pil/util/log.hpp"

namespace pil::pilfill {

namespace {

/// Timing-aware site pool of one tile: columns with counts and a heap of
/// next-feature delay marginals (exact LUT model, so marginals are
/// nondecreasing per column and the heap peek is the tile's true cheapest).
struct TilePool {
  TileInstance inst;
  std::vector<int> counts;
  // (marginal delay ps, column); one live entry per column.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      heap;

  double marginal_ps(const SolverContext& ctx, int k, int n) const {
    const InstanceColumn& c = inst.cols[k];
    if (!c.two_sided) return 0.0;
    const auto& lut = ctx.lut->table(c.d, c.num_sites);
    const double rf = ctx.objective == Objective::kWeighted
                          ? c.res_weighted
                          : c.res_nonweighted;
    return (lut[n] - lut[n - 1]) * ctx.switch_factor * rf * 1e-3;
  }

  void init(const SolverContext& ctx) {
    counts.assign(inst.cols.size(), 0);
    for (std::size_t k = 0; k < inst.cols.size(); ++k)
      if (inst.cols[k].num_sites > 0)
        heap.emplace(marginal_ps(ctx, static_cast<int>(k), 1),
                     static_cast<int>(k));
  }

  double cheapest_ps() const { return heap.top().first; }

  /// Take the cheapest site; returns its delay cost (ps).
  double take(const SolverContext& ctx) {
    const auto [cost, k] = heap.top();
    heap.pop();
    counts[k] += 1;
    if (counts[k] < inst.cols[k].num_sites)
      heap.emplace(marginal_ps(ctx, k, counts[k] + 1), k);
    return cost;
  }
};

}  // namespace

MvdcResult run_mvdc_fill(const FillSession& session, const MvdcConfig& mvdc) {
  const FlowConfig& flow = session.config();
  PIL_REQUIRE(flow.style == cap::FillStyle::kFloating,
              "MVDC allocation requires the convex floating model");
  PIL_REQUIRE(mvdc.delay_budget_ps >= 0, "negative delay budget");
  const fill::SlackColumns& slack = session.global_slack();

  const layout::Layer& layer = session.layout().layer(flow.layer);
  const cap::CouplingModel model(layer.eps_r, layer.thickness_um);
  cap::ColumnCapLut lut(model, flow.rules.feature_um);
  const SolverContext ctx = flow_detail::make_context(flow, model, lut);

  // One site pool per tile; a tile's capacity is its pool's site count.
  const int num_tiles = session.tiles_total();
  std::vector<TilePool> pools(num_tiles);
  std::vector<int> capacity(num_tiles);
  for (int t = 0; t < num_tiles; ++t) {
    pools[t].inst = build_tile_instance(t, 0, slack, session.pieces(),
                                        flow.net_criticality);
    pools[t].init(ctx);
    capacity[t] = slack.tile_capacity(t);
  }

  // The top-up loop raises the lowest window; MVDC fills it through the
  // cheapest marginal among its candidate tiles, and stops once raising the
  // minimum would bust the budget.
  MvdcResult result;
  const density::FillTargetResult target = density::compute_fill_amounts_picked(
      session.wires(), capacity, flow.rules, flow.target,
      [&](const std::vector<int>& candidates) {
        int best = 0;
        for (int i = 1; i < static_cast<int>(candidates.size()); ++i)
          if (pools[candidates[i]].cheapest_ps() <
              pools[candidates[best]].cheapest_ps())
            best = i;
        TilePool& pool = pools[candidates[best]];
        if (result.delay_spent_ps + pool.cheapest_ps() >
            mvdc.delay_budget_ps + 1e-15) {
          result.budget_exhausted = true;
          return -1;
        }
        result.delay_spent_ps += pool.take(ctx);
        return best;
      });
  result.lower_target_used = target.lower_target_used;
  result.upper_bound_used = target.upper_bound_used;
  result.placed = target.total_features;

  // Materialize the placement and score it exactly.
  for (const TilePool& pool : pools)
    flow_detail::append_rects(pool.inst, pool.counts, slack, flow.rules,
                              result.features);
  result.impact = session.evaluator().evaluate_rects(result.features);
  result.density_after = session.density_with(result.features).stats();
  PIL_INFO("MVDC: placed " << result.placed << ", delay spent "
                           << result.delay_spent_ps << " ps, min density "
                           << target.before.min_density << " -> "
                           << result.density_after.min_density);
  return result;
}

}  // namespace pil::pilfill

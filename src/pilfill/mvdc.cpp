#include "pil/pilfill/mvdc.hpp"

#include "flow_common.hpp"
#include "pil/util/log.hpp"

namespace pil::pilfill {

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

  // One instance and cheapest-site queue per tile; a tile's capacity is
  // its queue's site count. The queues point into the finished instances.
  const int num_tiles = session.tiles_total();
  std::vector<TileInstance> instances;
  std::vector<int> capacity(num_tiles);
  for (int t = 0; t < num_tiles; ++t) {
    instances.push_back(build_tile_instance(t, 0, slack, session.pieces(),
                                            flow.net_criticality));
    capacity[t] = slack.tile_capacity(t);
  }
  std::vector<CheapestSites> sites;
  sites.reserve(num_tiles);
  for (const TileInstance& inst : instances) sites.emplace_back(inst, ctx);
  // ohm * fF = 1e-3 ps.
  auto cheapest_ps = [&](int t) { return sites[t].cheapest() * 1e-3; };

  // The top-up loop raises the lowest window; MVDC fills it through the
  // cheapest marginal among its candidate tiles, and stops once raising the
  // minimum would bust the budget.
  MvdcResult result;
  const density::FillTargetResult target = density::compute_fill_amounts_picked(
      session.wires(), capacity, flow.rules, flow.target,
      [&](const std::vector<int>& candidates) {
        int best = 0;
        for (int i = 1; i < static_cast<int>(candidates.size()); ++i)
          if (cheapest_ps(candidates[i]) < cheapest_ps(candidates[best]))
            best = i;
        const int t = candidates[best];
        if (result.delay_spent_ps + cheapest_ps(t) >
            mvdc.delay_budget_ps + 1e-15) {
          result.budget_exhausted = true;
          return -1;
        }
        result.delay_spent_ps += cheapest_ps(t);
        sites[t].take();
        return best;
      });
  result.lower_target_used = target.lower_target_used;
  result.upper_bound_used = target.upper_bound_used;
  result.placed = target.total_features;

  // Materialize the placement and score it exactly.
  for (int t = 0; t < num_tiles; ++t)
    flow_detail::append_rects(instances[t], sites[t].counts(), slack,
                              flow.rules, result.features);
  result.impact = session.evaluator().evaluate_rects(result.features);
  result.density_after = session.density_with(result.features).stats();
  PIL_INFO("MVDC: placed " << result.placed << ", delay spent "
                           << result.delay_spent_ps << " ps, min density "
                           << target.before.min_density << " -> "
                           << result.density_after.min_density);
  return result;
}

}  // namespace pil::pilfill

#include "pil/pilfill/instance.hpp"

#include <algorithm>

namespace pil::pilfill {

TileInstance build_tile_instance(int tile_flat, int required,
                                 const fill::SlackColumns& slack,
                                 const std::vector<rctree::WirePiece>& pieces,
                                 const std::vector<double>& net_criticality) {
  auto crit = [&](layout::NetId n) {
    if (n < 0 || static_cast<std::size_t>(n) >= net_criticality.size())
      return 1.0;
    PIL_REQUIRE(net_criticality[n] >= 0, "negative net criticality");
    return net_criticality[n];
  };
  TileInstance inst;
  inst.tile_flat = tile_flat;
  inst.required = required;
  const auto& parts = slack.tile_parts(tile_flat);
  inst.cols.reserve(parts.size());
  for (const auto& part : parts) {
    const fill::SlackColumn& col = slack.columns()[part.column];
    InstanceColumn ic;
    ic.column = part.column;
    ic.first_site = part.first_site;
    ic.num_sites = part.num_sites;
    ic.x = col.x_center;
    ic.d = col.gap_um;
    ic.two_sided = col.two_sided();
    if (ic.two_sided) {
      const rctree::WirePiece& below = pieces[col.below_piece];
      const rctree::WirePiece& above = pieces[col.above_piece];
      ic.below_net = below.net;
      ic.above_net = above.net;
      const double rb = slack.line_res_at(col, below);
      const double ra = slack.line_res_at(col, above);
      ic.res_nonweighted = rb + ra;
      ic.res_weighted = crit(below.net) * below.downstream_sinks * rb +
                        crit(above.net) * above.downstream_sinks * ra;
      // The exact-delay factor is physical: criticality never scales it.
      ic.res_exact = below.downstream_sinks * rb + above.downstream_sinks * ra +
                     below.offpath_res_sum + above.offpath_res_sum;
    }
    inst.cols.push_back(ic);
  }
  // A mode-I/II tile lists its columns as Fig. 7's per-tile sweep closes
  // them; solver tie-breaks and Normal's site draws follow this order.
  if (slack.mode() != fill::SlackMode::kIII) {
    std::vector<std::pair<fill::SlackColumns::SweepKey, int>> order;
    for (std::size_t k = 0; k < inst.cols.size(); ++k)
      order.emplace_back(
          slack.sweep_key(slack.columns()[inst.cols[k].column], pieces), k);
    std::sort(order.begin(), order.end());  // keys are unique
    const std::vector<InstanceColumn> cols = std::move(inst.cols);
    inst.cols.clear();
    for (const auto& [key, k] : order) inst.cols.push_back(cols[k]);
  }
  return inst;
}

}  // namespace pil::pilfill

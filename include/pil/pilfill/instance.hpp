#pragma once
/// \file instance.hpp
/// Per-tile MDFC (Minimum Delay, Fill-Constrained) problem instances
/// (Section 4). A tile instance carries, for every slack-column part in the
/// tile: the column position, capacity, the line separation d, and the
/// resistance factors of the facing active lines where the column crosses
/// them (SlackColumns::line_res_at) -- everything the solvers need, with
/// no further geometry.

#include <vector>

#include "pil/fill/slack.hpp"
#include "pil/rctree/rctree.hpp"

namespace pil::pilfill {

/// One fillable column as seen by a tile solver.
struct InstanceColumn {
  int column = -1;      ///< global index into SlackColumns::columns()
  int first_site = 0;   ///< tile part: sites [first_site, first_site+num_sites)
  int num_sites = 0;    ///< C_k, the column capacity within the tile
  double x = 0.0;       ///< column center x
  double d = 0.0;       ///< line separation (meaningful iff two_sided)
  bool two_sided = false;
  layout::NetId below_net = layout::kInvalidNet;  ///< net of the facing lines
  layout::NetId above_net = layout::kInvalidNet;  ///< (two_sided only)
  /// sum over facing lines of (R_l + r_l * dist(crossing)) -- Eq. (13).
  double res_nonweighted = 0.0;
  /// same with each term multiplied by W_l (downstream sinks) -- Eq. (21).
  double res_weighted = 0.0;
  /// W_l*res + K_l summed over facing lines: exact sink-delay factor.
  double res_exact = 0.0;
};

/// The MDFC instance for one tile: insert `required` features into the
/// columns minimizing total (possibly weighted) delay increase.
struct TileInstance {
  int tile_flat = -1;
  int required = 0;  ///< F; may exceed capacity (solvers clamp + report)
  std::vector<InstanceColumn> cols;

  int capacity() const {
    int sum = 0;
    for (const auto& c : cols) sum += c.num_sites;
    return sum;
  }
};

/// Build the instance for `tile_flat` with fill requirement `required`.
/// `net_criticality` (optional, indexed by NetId) scales each line's
/// contribution to the *weighted* objective: W_l becomes
/// criticality(net) * downstream_sinks -- the hook for slack-driven weights
/// from an STA engine. Nets beyond the vector get weight 1.
TileInstance build_tile_instance(
    int tile_flat, int required, const fill::SlackColumns& slack,
    const std::vector<rctree::WirePiece>& pieces,
    const std::vector<double>& net_criticality = {});

}  // namespace pil::pilfill

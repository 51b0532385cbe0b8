#pragma once
/// \file anneal.hpp
/// Global annealing refinement of a PIL-Fill placement (extension).
///
/// The paper's per-tile decomposition has a blind spot that grows with the
/// dissection parameter r (its Section 6 observation): the *density
/// targeter* hands each small tile a fill quota with no regard for what
/// that tile's slack costs, and the per-tile solver must then spend it
/// locally. The real manufacturing contract, however, is on WINDOWS, not
/// tiles. This module attacks the global objective directly: starting from
/// the per-tile convex optimum, simulated annealing moves individual
/// features between columns -- including across tiles -- accepting a move
/// only if every covering window stays within the density band the
/// starting placement achieved (floor) and the targeter's cap. The flow
/// runs on a caller's FillSession (its targets, slack columns, wires and
/// evaluator), so window densities count the session's wires and metal
/// blockages. Costs are charged per whole gap (cross-tile
/// column totals), O(1) per move from the lookup tables.

#include <cstdint>

#include "pil/pilfill/session.hpp"

namespace pil::pilfill {

struct AnnealConfig {
  /// Move attempts per placed feature (total budget = this * features).
  int moves_per_feature = 30;
  /// Initial temperature as a fraction of the starting per-feature cost;
  /// 0 disables hill-climbing escapes (pure descent).
  double initial_temp_frac = 0.5;
  /// Geometric cooling is scheduled so the temperature decays to ~1% of
  /// the initial value over the move budget.
  std::uint64_t seed = 1;
  /// Fraction of move attempts that try an inter-tile move (the rest are
  /// intra-tile shuffles).
  double inter_tile_fraction = 0.7;
  /// Slack on the achieved density floor, in features per window: moves may
  /// lower a window by at most this much below the starting minimum.
  int floor_slack_features = 0;
};

struct AnnealFlowResult {
  DelayImpact impact;            ///< exact evaluator score of the BEST state
  double initial_cost_ps = 0.0;  ///< global model cost of the convex start
  double final_cost_ps = 0.0;    ///< global model cost after annealing
  long long moves_tried = 0;
  long long moves_accepted = 0;
  std::vector<geom::Rect> features;
  std::vector<int> features_per_tile;
  double solve_seconds = 0.0;
};

/// Anneal from the per-tile convex placement of the session's targets, so
/// the total fill (and thus the density quality) matches session.solve();
/// floating fill and SlackColumn-III only.
AnnealFlowResult run_annealed_pil_fill_flow(const FillSession& session,
                                            const AnnealConfig& anneal = {});

}  // namespace pil::pilfill

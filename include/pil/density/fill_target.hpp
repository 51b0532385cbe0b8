#pragma once
/// \file fill_target.hpp
/// Computation of the *prescribed fill amount per tile* (the "numRF_ij" of
/// Figure 8, step 2). This is the density-control half of the flow, taken
/// from the normal-fill work the paper builds on (Chen-Kahng-Robins-
/// Zelikovsky, TCAD 2002): raise the minimum window density toward a target
/// L without pushing any window above a cap U.
///
/// The three engines share one core. Each resolves L and U the same way,
/// each starts from a per-tile allocation -- none for Monte-Carlo, an LP
/// optimum rounded down for the two window LPs -- and each ends in the same
/// integral top-up loop, which raises the lowest window first and adds a
/// feature only where every covering window stays at or below U. U is a
/// hard cap; L is a target that U overrides. The engines pick a uniformly
/// random tile of the window; compute_fill_amounts_picked runs the same
/// loop with the caller's choice of tile (MVDC picks the cheapest delay).
///
/// All return integer feature counts per tile; every PIL-Fill method then
/// places *exactly these counts*, which is what makes the delay comparison
/// "at identical density control quality".

#include <cstdint>
#include <functional>
#include <vector>

#include "pil/fill/rules.hpp"
#include "pil/grid/density_map.hpp"

namespace pil::density {

struct FillTargetConfig {
  /// Lower density target L; negative = auto (the original max window
  /// density, i.e. aim for perfect uniformity at the current maximum).
  double lower_target = -1.0;
  /// Upper density cap U; negative = auto (L plus two feature-areas per
  /// window, absorbing integer rounding).
  double upper_bound = -1.0;
  std::uint64_t seed = 7;
};

struct FillTargetResult {
  std::vector<int> features_per_tile;   ///< indexed by flat tile id
  long long total_features = 0;
  grid::DensityStats before;
  grid::DensityStats after;             ///< with the prescribed fill added
  double lower_target_used = 0.0;
  double upper_bound_used = 0.0;
};

/// Monte-Carlo greedy targeter: the top-up loop started from no fill.
/// Repeatedly pick the lowest-density window and drop one feature into a
/// random tile of it that (a) still has slack capacity and (b) keeps every
/// covering window at or below U. Stops when the minimum window density
/// reaches L or no window can be improved: U is a hard cap; L is a target
/// that U overrides.
FillTargetResult compute_fill_amounts_mc(
    const grid::DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config = {});

/// Min-variation LP: maximize the minimum window density (up to L) subject
/// to per-tile slack capacity and the cap U, round each tile's LP amount
/// down to whole features, then top up as Monte-Carlo does. U is a hard
/// cap; L is a target that U overrides. Dense simplex: a dissection of
/// more than 1024 windows throws pil::Error naming the engine and the
/// window count.
FillTargetResult compute_fill_amounts_lp(
    const grid::DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config = {});

/// Min-Fill LP (the other classic objective from the TCAD'02 normal-fill
/// work): *minimize the total inserted fill* subject to every window
/// reaching the lower target L and the cap U, then round down and top up
/// like the min-variation LP. L is first clamped to the min-variation LP's
/// optimum so the LP stays feasible. U is a hard cap; L is a target that U
/// overrides. Fewer features means less capacitance for the PIL methods to
/// manage, at the price of a layout that only just meets the density rule.
/// Same 1024-window limit as the min-variation LP.
FillTargetResult compute_fill_amounts_min_fill_lp(
    const grid::DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config = {});

/// The choice of tile in the top-up loop. `candidates` are the flat ids of
/// the lowest window's tiles, row by row, that still have slack capacity
/// and keep every covering window at or below U (never empty). Returns the
/// index into `candidates` of the tile that gets the next feature, or -1
/// to stop the loop.
using TilePick = std::function<int(const std::vector<int>& candidates)>;

/// The top-up loop from no fill with the caller's choice of tile: L and U
/// resolve as for every engine and U stays a hard cap. The loop also stops
/// when `pick` returns -1. `config.seed` is unused.
FillTargetResult compute_fill_amounts_picked(
    const grid::DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config,
    const TilePick& pick);

}  // namespace pil::density

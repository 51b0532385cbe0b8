#pragma once
/// \file mvdc.hpp
/// The MVDC formulation -- *Minimum Variation under Delay Constraint* --
/// the alternative the paper poses in Sections 4 and 7 ("an upper bound on
/// timing impact constrains the minimization of layout density variation")
/// but does not develop.
///
/// Given a total delay-impact budget D, insert fill to raise the minimum
/// window density as far as possible while the (weighted or non-weighted)
/// Elmore delay increase stays within D. MVDC runs on a caller's
/// FillSession (its wires, global slack columns, pieces and evaluator; its
/// own fill targets go unused) and is the fill-targeting top-up loop
/// (density::compute_fill_amounts_picked) with a delay-aware choice of
/// tile: the loop always works on the currently-lowest-density window, and
/// MVDC fills the candidate tile whose cheapest site has the smallest delay
/// marginal (exact convex/LUT model, FlowConfig::net_criticality
/// included). L and U come from FlowConfig::target and resolve as for every
/// targeting engine; U is a hard cap on every window, metal blockages
/// counted. It stops when the budget is exhausted, the minimum reaches L,
/// or no insertable site remains.
///
/// Sweeping D traces the density-vs-delay tradeoff frontier
/// (bench_mvdc_tradeoff).

#include <vector>

#include "pil/pilfill/session.hpp"

namespace pil::pilfill {

struct MvdcConfig {
  /// Total delay-impact budget in ps, measured with the same per-tile LUT
  /// cost model the MDFC solvers optimize. Infinity = pure min-var fill.
  double delay_budget_ps = std::numeric_limits<double>::infinity();
};

struct MvdcResult {
  /// Window densities with the fill; without it they are session.wires().
  grid::DensityStats density_after;
  long long placed = 0;
  double delay_spent_ps = 0.0;   ///< per-tile model estimate (allocator view)
  DelayImpact impact;            ///< exact evaluator score of the placement
  std::vector<geom::Rect> features;
  double lower_target_used = 0.0;  ///< L, resolved from FlowConfig::target
  double upper_bound_used = 0.0;   ///< U, resolved from FlowConfig::target
  bool budget_exhausted = false; ///< stopped because of D, not density/slack
};

/// Run MVDC fill on the session's layout. session.config().objective
/// selects which delay metric the budget constrains.
MvdcResult run_mvdc_fill(const FillSession& session, const MvdcConfig& mvdc);

}  // namespace pil::pilfill

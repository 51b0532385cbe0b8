#pragma once
/// \file budgeted.hpp
/// Capacitance-budgeted PIL-Fill -- the paper's "ongoing research"
/// (Section 7): every net carries a coupling-capacitance budget (the
/// translation of its timing slack that synthesis/P&R tools maintain), and
/// fill insertion must respect every budget while still meeting the
/// per-tile density requirements.
///
/// Budgets couple tiles that share a net, so the per-tile decomposition of
/// MDFC no longer holds. The solver here is a *global* marginal-cost
/// allocation: one heap of candidate (tile, column) marginals over the
/// whole layout; a marginal is taken only if both facing nets can still
/// absorb its capacitance increment. Columns whose budgets are exhausted
/// fall out of consideration; a tile that cannot reach its requirement
/// without violating a budget reports shortfall instead of violating it
/// (budgets are hard constraints, density shortfall is the soft failure,
/// mirroring how fabs treat slack vs density waivers).
///
/// For floating fill the per-column cost is convex, so when no budget binds
/// the result coincides with the per-tile Convex/ILP-II optimum.

#include <limits>
#include <vector>

#include "pil/pilfill/session.hpp"
#include "pil/pilfill/solvers.hpp"

namespace pil::pilfill {

struct BudgetedConfig {
  /// Per-net coupling-capacitance budgets in fF, indexed by NetId. Nets
  /// beyond the vector's size (or entries set to infinity) are unbudgeted.
  std::vector<double> net_cap_budget_ff;
  /// Budget for nets not covered by the vector.
  double default_budget_ff = std::numeric_limits<double>::infinity();
};

struct BudgetedResult {
  /// counts[i][k]: features in column k of instance i (parallel to input).
  std::vector<std::vector<int>> counts;
  long long placed = 0;
  long long shortfall = 0;
  /// Coupling capacitance charged to each net (fF), indexed by NetId.
  std::vector<double> net_cap_used_ff;
  /// Largest relative budget utilization over budgeted nets (<= 1 + eps).
  double max_budget_utilization = 0.0;
};

/// Solve all tiles jointly under per-net capacitance budgets. `num_nets`
/// sizes the usage accounting. ctx.style must be floating (the marginal
/// allocation relies on convexity).
BudgetedResult solve_budgeted(const std::vector<TileInstance>& instances,
                              const SolverContext& ctx,
                              const BudgetedConfig& config, int num_nets);

/// Whole-layout budgeted flow result (see run_budgeted_pil_fill_flow).
struct BudgetedFlowResult {
  BudgetedResult allocation;
  DelayImpact impact;           ///< scored by the standard exact evaluator
  std::vector<geom::Rect> features;
  double solve_seconds = 0.0;  ///< stage pilfill.budgeted.solve
};

/// Derive per-net capacitance budgets from delay budgets: a net that may
/// slow down by at most `delay_budget_ps` can absorb delta-C up to
/// delay_budget / R_max, where R_max is the largest source resistance over
/// the net's pieces (a conservative bound: any added coupling is charged at
/// most R_max per fF). Pieces not on the fill layer still count (their
/// resistance bounds the worst case).
std::vector<double> budgets_from_delay_ps(
    const std::vector<rctree::WirePiece>& pieces, int num_nets,
    double delay_budget_ps);

/// Per-net variant: each net gets its own delay allowance (ps), e.g. from
/// sta::delay_allowance_from_slack. Nets with zero allowance get a zero
/// capacitance budget (no coupling fill may touch them).
std::vector<double> budgets_from_per_net_delay_ps(
    const std::vector<rctree::WirePiece>& pieces, int num_nets,
    const std::vector<double>& delay_allowance_ps);

/// Solve the session's tile instances (its targets, on its
/// config.solver_mode columns) with the global budget-aware allocator and
/// score the placement with session.evaluator(). Budgets use the session
/// layout's NetId space.
BudgetedFlowResult run_budgeted_pil_fill_flow(const FillSession& session,
                                              const BudgetedConfig& budgets);

}  // namespace pil::pilfill

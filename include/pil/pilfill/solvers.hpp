#pragma once
/// \file solvers.hpp
/// The per-tile MDFC solution methods of Section 5:
///
///   * Normal  -- the timing-oblivious baseline: features dropped on
///                uniformly random slack sites (Monte-Carlo placement of
///                the Chen et al. normal-fill flow).
///   * ILP-I   -- integer program with the *linear* capacitance model
///                (Eq. 6); Section 5.2.
///   * ILP-II  -- integer program over the exact lookup-table capacitance
///                model via binary expansion; Section 5.3.
///   * Greedy  -- Figure 8: sort columns by full-capacity delay, fill the
///                cheapest columns completely.
///   * Convex  -- (extension, not in the paper) exact marginal-cost
///                allocation; provably optimal for the ILP-II objective
///                because the column cost is convex in the feature count.

#include <cstdint>
#include <optional>
#include <string>

#include "pil/cap/coupling.hpp"
#include "pil/fill/rules.hpp"
#include "pil/ilp/branch_and_bound.hpp"
#include "pil/pilfill/instance.hpp"
#include "pil/util/deadline.hpp"
#include "pil/util/rng.hpp"

namespace pil::pilfill {

enum class Method { kNormal, kIlp1, kIlp2, kGreedy, kConvex };

const char* to_string(Method m);

/// Which resistance factor the solver optimizes (Table 1 vs Table 2).
enum class Objective { kNonWeighted, kWeighted };

/// Why a tile's primary method could not serve it directly (the structured
/// taxonomy behind MethodResult::failures; replaces the old bare
/// `tiles_error` count).
enum class FailureReason {
  kTileDeadline,   ///< per-tile wall-clock budget expired
  kFlowDeadline,   ///< whole-flow wall-clock budget expired
  kNodeLimit,      ///< B&B node budget exhausted without an incumbent
  kIlpError,       ///< ILP ended kError/kInfeasible/kUnbounded (see lp_status)
  kInjectedFault,  ///< a fault-injection site fired (util::InjectedFault)
  kException,      ///< any other exception escaped the solver
};

const char* to_string(FailureReason r);

/// One tile that its primary method could not serve directly. `served_by`
/// names the degradation-ladder step that produced the placement actually
/// used (== `method` when the primary's unproven incumbent was kept, see
/// `used_incumbent`; a failed tile that placed nothing reports the last
/// ladder step attempted).
struct TileFailure {
  int tile = -1;                  ///< flat tile index
  Method method = Method::kNormal;     ///< method originally requested
  Method served_by = Method::kNormal;  ///< ladder step that served the tile
  FailureReason reason = FailureReason::kException;
  ilp::IlpStatus ilp_status = ilp::IlpStatus::kOptimal;   ///< primary's ILP exit
  lp::SolveStatus lp_status = lp::SolveStatus::kOptimal;  ///< underlying simplex exit
  bool used_incumbent = false;  ///< primary's partial incumbent was kept
  std::string detail;           ///< human-readable context (e.g. what())
};

struct TileSolveResult {
  std::vector<int> counts;  ///< features per instance column
  int placed = 0;
  int shortfall = 0;        ///< required - placed (capacity shortage)
  long long bb_nodes = 0;   ///< branch-and-bound nodes (ILP methods)
  // Solver internals (ILP methods; zero for Normal/Greedy/Convex).
  long long lp_solves = 0;           ///< LP relaxations solved
  long long simplex_iterations = 0;  ///< simplex iterations over those solves
  double ilp_gap = 0.0;              ///< residual gap (kNodeLimit/kDeadline)
  /// Outcome of the tile's integer program. Non-ILP methods report
  /// kOptimal. kNodeLimit/kDeadline mean the incumbent was used unproven;
  /// kError / kInfeasible mean no usable solution -- the tile places
  /// nothing and the requirement shows up as shortfall. The driver
  /// aggregates these into MethodResult::tiles_node_limit /
  /// tiles_degraded / tiles_failed rather than folding them silently into
  /// the shortfall.
  ilp::IlpStatus ilp_status = ilp::IlpStatus::kOptimal;
  /// Simplex status behind an abnormal ilp_status (kOptimal otherwise).
  lp::SolveStatus lp_status = lp::SolveStatus::kOptimal;
  /// Set by solve_tile_guarded when the primary method could not serve the
  /// tile directly; describes the reason and which ladder step did.
  std::optional<TileFailure> failure;
};

struct SolverContext {
  const cap::CouplingModel* model = nullptr;
  cap::ColumnCapLut* lut = nullptr;  ///< shared LUT cache (ILP-II / Convex)
  fill::FillRules rules;
  Objective objective = Objective::kNonWeighted;
  ilp::IlpOptions ilp;
  /// Fill electrical style. Floating (the paper's assumption) has convex
  /// per-column cost; grounded has a step cost (first feature pays, the
  /// rest are shielded). Normal and Greedy support both; ILP-I, ILP-II and
  /// Convex are floating-only (their models assume linearity / convexity,
  /// and ILP-II's binary-expansion relaxation is weak under a step cost).
  cap::FillStyle style = cap::FillStyle::kFloating;
  /// Miller switch factor applied to coupling increments (Kahng-Muddu-Sarto
  /// style worst-case switching); scales all costs uniformly.
  double switch_factor = 1.0;
  // ---- robustness policy (used by solve_tile_guarded) ----
  /// Whole-flow wall-clock budget shared by every tile; null = unlimited.
  /// Not owned; must outlive the solve.
  const util::Deadline* flow_deadline = nullptr;
  /// Per-tile wall-clock budget in seconds; 0 = unlimited.
  double tile_deadline_seconds = 0.0;
  /// When the primary method cannot serve a tile, walk the degradation
  /// ladder (ILP-II/ILP-I/Convex -> Greedy -> Normal) instead of leaving
  /// the tile empty.
  bool degrade_on_failure = true;
};

/// Total delay-relevant capacitance cost of a column holding n features
/// (n = 0..capacity), per unit resistance factor -- the costs ILP-II,
/// Greedy, and the evaluator all charge. For floating fill this is the
/// coupling increment dC(n) (charged once, to the facing-line resistance
/// sum); for grounded fill it is the per-line load (charged per line; the
/// caller's resistance factor already sums the lines).
std::vector<double> column_cost_table(const SolverContext& ctx, double d_um,
                                      int capacity);

TileSolveResult solve_tile_normal(const TileInstance& inst, Rng& rng);
TileSolveResult solve_tile_greedy(const TileInstance& inst,
                                  const SolverContext& ctx);
TileSolveResult solve_tile_ilp1(const TileInstance& inst,
                                const SolverContext& ctx);
TileSolveResult solve_tile_ilp2(const TileInstance& inst,
                                const SolverContext& ctx);
TileSolveResult solve_tile_convex(const TileInstance& inst,
                                  const SolverContext& ctx);

/// Dispatch by method. `rng` is only used by kNormal.
TileSolveResult solve_tile(Method method, const TileInstance& inst,
                           const SolverContext& ctx, Rng& rng);

/// Robust dispatch: applies the context's wall-clock budgets (the tile
/// budget clipped by the flow deadline), evaluates the `tile_solve` fault
/// site, contains any exception the solver throws, and -- when the primary
/// method cannot serve the tile and `ctx.degrade_on_failure` is set --
/// walks the degradation ladder. Every non-direct outcome is recorded in
/// `result.failure`; the function itself never throws (ladder exhaustion
/// yields an empty placement with the requirement as shortfall). With no
/// budgets or faults configured this is a single branch on top of
/// solve_tile().
TileSolveResult solve_tile_guarded(Method method, const TileInstance& inst,
                                   const SolverContext& ctx, Rng& rng);

/// Install the pilfill payload decoder (Method / FailureReason /
/// FaultSite names) as the process journal namer, so pil.flight.v1 dumps
/// carry symbolic "method" / "detail" members next to the raw payloads.
/// Idempotent; FillSession and the flow driver call it on construction.
void register_journal_namer();

}  // namespace pil::pilfill

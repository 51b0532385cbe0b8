#pragma once
/// \file simplex.hpp
/// Bounded-variable simplex: the classic two-phase primal.
///
/// Phase 1 installs slack variables as the starting basis and adds
/// artificial variables only for rows whose slack cannot absorb the
/// initial residual; the sum of artificials is minimized. Phase 2
/// re-installs the true objective with artificials pinned to zero. Every
/// solve starts from this slack/artificial basis, so the result is a pure
/// function of the problem and the options.
///
/// Anti-cycling: Dantzig pricing with an automatic switch to Bland's rule
/// after a run of degenerate pivots, in both phases.
///
/// Cost: B^{-1} is held as a dense m x m array, but a pivot touches only
/// the non-zeros it needs. Pricing runs over CSR columns (2 non-zeros per
/// ILP-II binary); btran and the B^{-1} update read each row through a
/// short list of its non-zero columns, and a row that fills in past m / 8
/// entries goes back to the contiguous loop. So a sparse tile LP pays
/// O(m + nnz) per pivot and the dense window LPs of the fill targeters pay
/// what a dense kernel pays. Every term that can be non-zero is computed in
/// the dense loops' order and every skipped term is an exact zero, so x,
/// the objective and every count are bit-identical to a dense kernel's.

#include <vector>

#include "pil/lp/problem.hpp"
#include "pil/util/deadline.hpp"

namespace pil::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  kDeadline  ///< wall-clock budget expired (see SimplexOptions::deadline)
};

const char* to_string(SolveStatus s);

/// The pivot (1e-9) and feasibility (1e-7) tolerances and the x_B refresh
/// interval (64 pivots) are constants in simplex.cpp.
struct SimplexOptions {
  int max_iterations = 200000;
  int degenerate_switch = 40;   ///< consecutive degenerate pivots before Bland
  /// Optional wall-clock budget, polled every 64 pivots; null = unlimited.
  /// Not owned; must outlive the solve.
  const util::Deadline* deadline = nullptr;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< structural variable values (empty if infeasible)
  int iterations = 0;          ///< total pivots + bound flips (all phases)
  int phase1_iterations = 0;   ///< iterations spent reaching feasibility
  int bound_flips = 0;         ///< iterations resolved by a bound flip
};

/// Solve min c^T x s.t. rows, bounds. Deterministic.
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace pil::lp

#pragma once
/// \file branch_and_bound.hpp
/// Mixed-integer linear programming by LP-based branch and bound.
///
/// Together with pil/lp this replaces the paper's CPLEX solver. The MDFC
/// instances have a single coupling equality plus per-column structure, so
/// their LP relaxations are nearly integral and the search tree stays tiny;
/// the implementation is nonetheless a fully general bounded-variable MILP
/// solver (best-bound search, most-fractional branching).

#include <vector>

#include "pil/lp/problem.hpp"
#include "pil/lp/simplex.hpp"

namespace pil::ilp {

/// A value within 1e-6 of an integer counts as integral, and a node whose
/// bound comes within 1e-9 of the incumbent is pruned (branch_and_bound.cpp).
struct IlpOptions {
  lp::SimplexOptions lp;
  int max_nodes = 200000;    ///< search-node budget
  /// Optional wall-clock budget, checked before every node; also forwarded
  /// to the per-node LP solves unless `lp.deadline` is already set. Not
  /// owned; must outlive the solve. Null = unlimited.
  const util::Deadline* deadline = nullptr;
};

enum class IlpStatus {
  kOptimal,
  kInfeasible,
  kNodeLimit,   ///< best incumbent returned, optimality not proven
  kUnbounded,
  kError,       ///< LP solver failed (see IlpSolution::lp_status)
  kDeadline,    ///< wall-clock budget expired; best incumbent (if any) kept
};

const char* to_string(IlpStatus s);

struct IlpSolution {
  IlpStatus status = IlpStatus::kError;
  /// Incumbent objective, evaluated at the pre-rounding LP vertex.
  double objective = 0.0;
  std::vector<double> x;   ///< integral on integer vars (within 1e-6)
  int nodes_explored = 0;
  // Search statistics (observability; never fed back into the search).
  int lp_solves = 0;            ///< LP relaxations solved (= nodes not pruned early)
  long long lp_iterations = 0;  ///< simplex iterations summed over those solves
  int max_depth = 0;            ///< deepest branch-path length explored
  int incumbent_updates = 0;    ///< times a new best integral solution was found
  /// Best proven lower bound at exit. Equals `objective` when kOptimal; on
  /// kNodeLimit it is the smallest bound among unexplored nodes, so
  /// objective - best_bound is the residual optimality gap.
  double best_bound = 0.0;

  /// Underlying LP outcome when the search ends abnormally: on kError this
  /// names the simplex failure that aborted the node (e.g. kIterLimit); on
  /// kDeadline it is kDeadline when the budget expired inside an LP solve
  /// rather than between nodes. kOptimal otherwise.
  lp::SolveStatus lp_status = lp::SolveStatus::kOptimal;

  /// Absolute optimality gap (0 when proven optimal; meaningful with an
  /// incumbent, i.e. kOptimal or kNodeLimit with non-empty x).
  double gap() const { return objective - best_bound; }
};

/// Solve min c^T x with `integer[j]` marking integrality. `integer` must
/// have problem.num_vars() entries. Integer variables must have finite
/// bounds (the MDFC formulations always do).
IlpSolution solve_ilp(const lp::LpProblem& problem,
                      const std::vector<bool>& integer,
                      const IlpOptions& options = {});

}  // namespace pil::ilp

#include "pil/ilp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "pil/obs/journal.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/log.hpp"

namespace pil::ilp {

namespace {

constexpr double kIntTol = 1e-6;  ///< |x - round(x)| below this is integral
constexpr double kAbsGap = 1e-9;  ///< prune when bound is this near incumbent

struct Node {
  double bound = -lp::kInf;  ///< parent LP objective (lower bound on subtree)
  int depth = 0;             ///< branch decisions on the path to this node
  // Bound overrides accumulated along the branch path.
  std::vector<std::pair<int, double>> lo_over;
  std::vector<std::pair<int, double>> hi_over;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound;  // best-bound first (min-heap on bound)
  }
};

/// Most-fractional integer variable; -1 if all integral.
int pick_branch_var(const std::vector<double>& x,
                    const std::vector<bool>& integer) {
  int best = -1;
  double best_frac_dist = kIntTol;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (!integer[j]) continue;
    const double f = x[j] - std::floor(x[j]);
    const double dist = std::min(f, 1.0 - f);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace

const char* to_string(IlpStatus s) {
  switch (s) {
    case IlpStatus::kOptimal: return "optimal";
    case IlpStatus::kInfeasible: return "infeasible";
    case IlpStatus::kNodeLimit: return "node-limit";
    case IlpStatus::kUnbounded: return "unbounded";
    case IlpStatus::kError: return "error";
    case IlpStatus::kDeadline: return "deadline";
  }
  return "?";
}

IlpSolution solve_ilp(const lp::LpProblem& problem,
                      const std::vector<bool>& integer,
                      const IlpOptions& options) {
  PIL_REQUIRE(static_cast<int>(integer.size()) == problem.num_vars(),
              "integrality mask size mismatch");
  for (int j = 0; j < problem.num_vars(); ++j)
    if (integer[j])
      PIL_REQUIRE(std::isfinite(problem.var(j).lo) &&
                      std::isfinite(problem.var(j).hi),
                  "integer variables must have finite bounds");

  IlpSolution best;
  best.status = IlpStatus::kInfeasible;
  double incumbent = lp::kInf;
  bool node_limit_hit = false;
  bool deadline_hit = false;

  // Forward the wall-clock budget into the per-node LP solves so a single
  // long relaxation cannot overshoot the budget by its full runtime.
  lp::SimplexOptions lp_opt = options.lp;
  if (lp_opt.deadline == nullptr) lp_opt.deadline = options.deadline;
  const bool faulty = util::faults_armed();
  const bool journaling = obs::journal_armed();

  // One copy of the problem per search: each node restores the bounds the
  // previous node moved, then applies its own branch path on top.
  lp::LpProblem sub = problem;
  std::vector<int> moved;
  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  open.push(std::make_shared<Node>());

  int explored = 0;
  while (!open.empty()) {
    if (explored >= options.max_nodes) {
      node_limit_hit = true;
      break;
    }
    if (options.deadline != nullptr && options.deadline->expired()) {
      deadline_hit = true;
      break;
    }
    if (faulty)
      util::maybe_fault(util::FaultSite::kBbNode,
                        static_cast<std::uint64_t>(explored));
    // Flight-recorder breadcrumb: nodes explored + current incumbent,
    // sampled at stride so a stuck search is attributable post-mortem.
    if (journaling && explored != 0 && (explored & 63) == 0)
      obs::journal_record(obs::JournalEventKind::kBbMilestone, 0, 0,
                          static_cast<std::uint64_t>(explored), incumbent);
    const std::shared_ptr<Node> node = open.top();
    open.pop();
    if (node->bound >= incumbent - kAbsGap) continue;  // pruned
    ++explored;
    best.max_depth = std::max(best.max_depth, node->depth);

    for (const int j : moved)
      sub.set_var_bounds(j, problem.var(j).lo, problem.var(j).hi);
    moved.clear();
    bool empty_interval = false;
    for (const auto& [j, lo] : node->lo_over) {
      const double nlo = std::max(sub.var(j).lo, lo);
      if (nlo > sub.var(j).hi) { empty_interval = true; break; }
      sub.set_var_bounds(j, nlo, sub.var(j).hi);
      moved.push_back(j);
    }
    for (const auto& [j, hi] : node->hi_over) {
      if (empty_interval) break;
      const double nhi = std::min(sub.var(j).hi, hi);
      if (nhi < sub.var(j).lo) { empty_interval = true; break; }
      sub.set_var_bounds(j, sub.var(j).lo, nhi);
      moved.push_back(j);
    }
    if (empty_interval) continue;  // branch emptied a variable's interval

    const lp::LpSolution rel = lp::solve_lp(sub, lp_opt);
    best.lp_iterations += rel.iterations;
    ++best.lp_solves;
    if (rel.status == lp::SolveStatus::kDeadline) {
      // Budget ran out mid-relaxation: keep the incumbent found so far and
      // finish as a deadline exit rather than an error.
      best.lp_status = rel.status;
      deadline_hit = true;
      break;
    }
    if (rel.status == lp::SolveStatus::kInfeasible) continue;
    if (rel.status == lp::SolveStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded or
      // infeasible; we report unbounded (integer vars are bounded, so this
      // can only come from continuous vars).
      best.status = IlpStatus::kUnbounded;
      return best;
    }
    if (rel.status == lp::SolveStatus::kIterLimit) {
      best.status = IlpStatus::kError;
      best.lp_status = rel.status;
      best.nodes_explored = explored;
      return best;
    }
    if (rel.objective >= incumbent - kAbsGap) continue;

    const int bv = pick_branch_var(rel.x, integer);
    if (bv < 0) {
      // Integral: new incumbent.
      ++best.incumbent_updates;
      incumbent = rel.objective;
      best.objective = rel.objective;
      best.x = rel.x;
      for (int j = 0; j < problem.num_vars(); ++j)
        if (integer[j]) best.x[j] = std::round(best.x[j]);
      best.status = IlpStatus::kOptimal;
      continue;
    }

    const double xv = rel.x[bv];
    auto down = std::make_shared<Node>(*node);
    down->bound = rel.objective;
    down->depth = node->depth + 1;
    down->hi_over.emplace_back(bv, std::floor(xv));
    auto up = std::make_shared<Node>(*node);
    up->bound = rel.objective;
    up->depth = node->depth + 1;
    up->lo_over.emplace_back(bv, std::ceil(xv));
    open.push(std::move(down));
    open.push(std::move(up));
  }

  best.nodes_explored = explored;
  // A truncated search (node budget or wall clock) demotes the provisional
  // status: the incumbent, if any, is kept but optimality is not proven.
  if (node_limit_hit || deadline_hit) {
    if (best.status == IlpStatus::kOptimal ||
        best.status == IlpStatus::kInfeasible)
      best.status = deadline_hit ? IlpStatus::kDeadline
                                 : IlpStatus::kNodeLimit;
  }
  // Final bound: with the search exhausted the incumbent is proven; when
  // the budget cut the search off, the best open node bounds what an
  // exhaustive search could still improve.
  best.best_bound = best.objective;
  if ((node_limit_hit || deadline_hit) && !open.empty())
    best.best_bound = std::min(best.objective, open.top()->bound);
  return best;
}

}  // namespace pil::ilp

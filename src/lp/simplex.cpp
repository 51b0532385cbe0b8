#include "pil/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "pil/obs/journal.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/log.hpp"

namespace pil::lp {

namespace {

enum class ColStatus : unsigned char { kBasic, kAtLower, kAtUpper, kFreeZero };

/// Dense bounded-variable simplex working state. Column layout:
///   [0, n)        structural variables
///   [n, n+m)      slack variables (one per row; bounds encode the sense)
///   [n+m, total)  artificial variables (phase 1 only)
class Simplex {
 public:
  Simplex(const LpProblem& p, const SimplexOptions& opt)
      : p_(p), opt_(opt), n_(p.num_vars()), m_(p.num_rows()) {}

  LpSolution run() {
    build();
    LpSolution sol;

    // Phase 1: minimize the sum of artificials (skip if none were needed).
    if (num_artificials_ > 0) {
      set_phase1_costs();
      const SolveStatus s1 = iterate(sol.iterations);
      sol.phase1_iterations = sol.iterations;
      if (s1 == SolveStatus::kIterLimit || s1 == SolveStatus::kDeadline) {
        sol.status = s1;
        sol.bound_flips = bound_flips_;
        return sol;
      }
      PIL_ASSERT(s1 != SolveStatus::kUnbounded,
                 "phase-1 objective is bounded below by zero");
      if (phase_objective() > opt_.feas_tol) {
        sol.status = SolveStatus::kInfeasible;
        sol.bound_flips = bound_flips_;
        return sol;
      }
      // Pin artificials to zero for phase 2.
      for (int j = n_ + m_; j < total_; ++j) lo_[j] = hi_[j] = 0.0;
    }

    set_phase2_costs();
    const SolveStatus s2 = iterate(sol.iterations);
    sol.status = s2;
    sol.bound_flips = bound_flips_;
    if (s2 != SolveStatus::kOptimal) return sol;

    sol.x.assign(n_, 0.0);
    std::vector<double> full = full_solution();
    for (int j = 0; j < n_; ++j) sol.x[j] = full[j];
    sol.objective = p_.objective_value(sol.x);
    return sol;
  }

 private:
  // ---- setup ---------------------------------------------------------------

  /// Sparse constraint columns, rhs and the structural + slack bound
  /// arrays, then the starting basis: slacks where they absorb the initial
  /// residual, artificials elsewhere.
  void build() {
    cols_.assign(n_ + m_, {});
    rhs_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const auto& row = p_.row(i);
      rhs_[i] = row.rhs;
      for (const auto& e : row.entries)
        cols_[e.var].push_back({i, e.coef});
    }
    lo_.assign(n_ + m_, 0.0);
    hi_.assign(n_ + m_, 0.0);
    for (int j = 0; j < n_; ++j) {
      lo_[j] = p_.var(j).lo;
      hi_[j] = p_.var(j).hi;
    }
    // Slack bounds encode the row sense: a*x + s = b.
    for (int i = 0; i < m_; ++i) {
      const int j = n_ + i;
      cols_[j].push_back({i, 1.0});
      switch (p_.row(i).sense) {
        case Sense::kLe: lo_[j] = 0.0;    hi_[j] = kInf; break;
        case Sense::kGe: lo_[j] = -kInf;  hi_[j] = 0.0;  break;
        case Sense::kEq: lo_[j] = 0.0;    hi_[j] = 0.0;  break;
      }
    }

    // Nonbasic start: every structural at its nearest finite bound (free
    // variables at zero).
    total_ = n_ + m_;
    status_.assign(total_, ColStatus::kAtLower);
    val_.assign(total_, 0.0);
    for (int j = 0; j < n_; ++j) {
      if (std::isfinite(lo_[j])) {
        status_[j] = ColStatus::kAtLower;
        val_[j] = lo_[j];
      } else if (std::isfinite(hi_[j])) {
        status_[j] = ColStatus::kAtUpper;
        val_[j] = hi_[j];
      } else {
        status_[j] = ColStatus::kFreeZero;
        val_[j] = 0.0;
      }
    }

    // Residual each slack would have to take; add an artificial where the
    // slack's bounds cannot absorb it.
    std::vector<double> resid = rhs_;
    for (int j = 0; j < n_; ++j) {
      if (val_[j] == 0.0) continue;
      for (const auto& [i, a] : cols_[j]) resid[i] -= a * val_[j];
    }
    basis_.assign(m_, -1);
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    num_artificials_ = 0;
    for (int i = 0; i < m_; ++i) {
      const int sj = n_ + i;
      if (resid[i] >= lo_[sj] - opt_.feas_tol &&
          resid[i] <= hi_[sj] + opt_.feas_tol) {
        basis_[i] = sj;
        status_[sj] = ColStatus::kBasic;
        binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
      } else {
        // Slack goes nonbasic at its nearest bound; artificial absorbs the
        // remainder with column sign(residual') * e_i so its value is >= 0.
        const double sb = (resid[i] < lo_[sj]) ? lo_[sj] : hi_[sj];
        status_[sj] = (sb == lo_[sj]) ? ColStatus::kAtLower : ColStatus::kAtUpper;
        val_[sj] = sb;
        const double rem = resid[i] - sb;
        const double sign = (rem >= 0) ? 1.0 : -1.0;
        cols_.push_back({{i, sign}});
        lo_.push_back(0.0);
        hi_.push_back(kInf);
        status_.push_back(ColStatus::kBasic);
        val_.push_back(0.0);
        basis_[i] = total_;
        binv_[static_cast<std::size_t>(i) * m_ + i] = sign;  // B^{-1} = B for +-e_i
        ++total_;
        ++num_artificials_;
      }
    }
    cost_.assign(total_, 0.0);
    xb_.assign(m_, 0.0);
    recompute_xb();
  }

  void set_phase1_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = n_ + m_; j < total_; ++j) cost_[j] = 1.0;
  }

  void set_phase2_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = 0; j < n_; ++j) cost_[j] = p_.var(j).obj;
  }

  double phase_objective() const {
    double v = 0.0;
    for (int i = 0; i < m_; ++i) v += cost_[basis_[i]] * xb_[i];
    return v;
  }

  // ---- linear algebra ------------------------------------------------------

  /// w = B^{-1} * A_col(j).
  void ftran(int j, std::vector<double>& w) const {
    std::fill(w.begin(), w.end(), 0.0);
    for (const auto& [i, a] : cols_[j]) {
      // add a * column i of B^{-1}
      const double* brow = binv_.data();
      for (int k = 0; k < m_; ++k)
        w[k] += a * brow[static_cast<std::size_t>(k) * m_ + i];
    }
  }

  /// y = (c_B)^T * B^{-1}.
  void btran(std::vector<double>& y) const {
    y.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost_[basis_[i]];
      if (cb == 0.0) continue;
      const double* brow = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) y[k] += cb * brow[k];
    }
  }

  double reduced_cost(int j, const std::vector<double>& y) const {
    double d = cost_[j];
    for (const auto& [i, a] : cols_[j]) d -= y[i] * a;
    return d;
  }

  void recompute_xb() {
    std::vector<double> beff = rhs_;
    for (int j = 0; j < total_; ++j) {
      if (status_[j] == ColStatus::kBasic || val_[j] == 0.0) continue;
      for (const auto& [i, a] : cols_[j]) beff[i] -= a * val_[j];
    }
    for (int i = 0; i < m_; ++i) {
      const double* brow = &binv_[static_cast<std::size_t>(i) * m_];
      double v = 0.0;
      for (int k = 0; k < m_; ++k) v += brow[k] * beff[k];
      xb_[i] = v;
    }
  }

  // ---- main loops ----------------------------------------------------------

  SolveStatus iterate(int& iter_accum) {
    std::vector<double> y(m_), w(m_);
    int degenerate_run = 0;
    // Counters stay in locals inside the loop (int stores through `this` or
    // the accumulator reference could alias basis_/status_ writes and cost
    // registers); they flush once at the single exit point below.
    int flips = 0;
    SolveStatus result = SolveStatus::kIterLimit;
    util::DeadlinePoller deadline(opt_.deadline);
    const bool faulty = util::faults_armed();
    const bool journaling = obs::journal_armed();
    int iter = 0;
    for (; iter < opt_.max_iterations; ++iter) {
      if (deadline.expired()) {
        result = SolveStatus::kDeadline;
        break;
      }
      if (faulty)
        util::maybe_fault(util::FaultSite::kLpPivot,
                          static_cast<std::uint64_t>(iter));
      // Sampled progress breadcrumb for the flight recorder: cheap enough
      // to leave always-on (one branch per pivot when armed).
      if (journaling && iter != 0 && (iter & 1023) == 0)
        obs::journal_record(obs::JournalEventKind::kSimplexMilestone, 0, 0,
                            static_cast<std::uint64_t>(iter));
      const bool bland = degenerate_run >= opt_.degenerate_switch;
      btran(y);

      // Pricing: pick an entering column with a favorable reduced cost.
      int q = -1;
      double best = opt_.tol;
      int dir = 0;  // +1: entering increases, -1: decreases
      for (int j = 0; j < total_; ++j) {
        if (status_[j] == ColStatus::kBasic) continue;
        if (lo_[j] == hi_[j]) continue;  // fixed: can never move
        const double d = reduced_cost(j, y);
        double merit = 0.0;
        int this_dir = 0;
        if (status_[j] == ColStatus::kAtLower && d < -opt_.tol) {
          merit = -d;
          this_dir = +1;
        } else if (status_[j] == ColStatus::kAtUpper && d > opt_.tol) {
          merit = d;
          this_dir = -1;
        } else if (status_[j] == ColStatus::kFreeZero &&
                   std::fabs(d) > opt_.tol) {
          merit = std::fabs(d);
          this_dir = (d < 0) ? +1 : -1;
        }
        if (this_dir == 0) continue;
        if (bland) { q = j; dir = this_dir; break; }
        if (merit > best) {
          best = merit;
          q = j;
          dir = this_dir;
        }
      }
      if (q < 0) {
        result = SolveStatus::kOptimal;
        break;
      }

      ftran(q, w);

      // Ratio test: how far can the entering variable move?
      double tmax = hi_[q] - lo_[q];  // own bound flip distance (may be inf)
      int leave = -1;                 // basis position that blocks first
      double leave_to = 0.0;          // bound the leaving variable lands on
      for (int i = 0; i < m_; ++i) {
        const double wi = dir * w[i];
        const int bj = basis_[i];
        double t;
        double to;
        if (wi > opt_.tol) {  // basic value decreases toward its lower bound
          if (!std::isfinite(lo_[bj])) continue;
          t = (xb_[i] - lo_[bj]) / wi;
          to = lo_[bj];
        } else if (wi < -opt_.tol) {  // increases toward its upper bound
          if (!std::isfinite(hi_[bj])) continue;
          t = (hi_[bj] - xb_[i]) / (-wi);
          to = hi_[bj];
        } else {
          continue;
        }
        if (t < 0) t = 0;  // numerical guard for slightly out-of-bound basics
        if (t < tmax - opt_.tol) {
          // Strictly tighter than anything seen (including the bound flip).
          tmax = t;
          leave = i;
          leave_to = to;
        } else if (leave >= 0 && t <= tmax + opt_.tol) {
          // Tie among blocking basics: Bland takes the lowest column index
          // (termination guarantee); otherwise prefer the larger pivot
          // element for numerical stability.
          const bool take = bland ? basis_[i] < basis_[leave]
                                  : std::fabs(w[i]) > std::fabs(w[leave]);
          if (take) {
            leave = i;
            leave_to = to;
          }
        }
      }

      if (!std::isfinite(tmax)) {
        result = SolveStatus::kUnbounded;
        break;
      }
      degenerate_run = (tmax <= opt_.tol) ? degenerate_run + 1 : 0;

      if (leave < 0) {
        // Bound flip: entering runs to its opposite bound.
        ++flips;
        for (int i = 0; i < m_; ++i) xb_[i] -= dir * tmax * w[i];
        val_[q] = (dir > 0) ? hi_[q] : lo_[q];
        status_[q] = (dir > 0) ? ColStatus::kAtUpper : ColStatus::kAtLower;
        continue;
      }

      // Pivot: q enters the basis at position `leave`.
      const int out = basis_[leave];
      const double enter_val = val_[q] + dir * tmax;
      for (int i = 0; i < m_; ++i)
        if (i != leave) xb_[i] -= dir * tmax * w[i];
      xb_[leave] = enter_val;

      status_[out] = (leave_to == lo_[out]) ? ColStatus::kAtLower
                                            : ColStatus::kAtUpper;
      val_[out] = leave_to;
      status_[q] = ColStatus::kBasic;
      val_[q] = 0.0;
      basis_[leave] = q;

      // Update B^{-1}: row `leave` scaled, others eliminated.
      const double piv = w[leave];
      PIL_ASSERT(std::fabs(piv) > opt_.tol * 1e-3, "vanishing simplex pivot");
      double* prow = &binv_[static_cast<std::size_t>(leave) * m_];
      for (int k = 0; k < m_; ++k) prow[k] /= piv;
      for (int i = 0; i < m_; ++i) {
        if (i == leave || w[i] == 0.0) continue;
        double* irow = &binv_[static_cast<std::size_t>(i) * m_];
        const double f = w[i];
        for (int k = 0; k < m_; ++k) irow[k] -= f * prow[k];
      }

      if ((iter + 1) % opt_.refactor_interval == 0) recompute_xb();
    }
    iter_accum += iter;
    bound_flips_ += flips;
    return result;
  }

  std::vector<double> full_solution() const {
    std::vector<double> x(val_.begin(), val_.end());
    for (int i = 0; i < m_; ++i) x[basis_[i]] = xb_[i];
    return x;
  }

  const LpProblem& p_;
  const SimplexOptions& opt_;
  int n_ = 0;
  int m_ = 0;
  int total_ = 0;
  int num_artificials_ = 0;
  int bound_flips_ = 0;

  std::vector<std::vector<std::pair<int, double>>> cols_;
  std::vector<double> rhs_;
  std::vector<double> lo_, hi_;
  std::vector<double> cost_;
  std::vector<double> val_;      // nonbasic values (basic entries unused)
  std::vector<ColStatus> status_;
  std::vector<int> basis_;       // column index basic in each row
  std::vector<double> binv_;     // dense m x m row-major B^{-1}
  std::vector<double> xb_;       // basic variable values by row
};

}  // namespace

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iteration-limit";
    case SolveStatus::kDeadline: return "deadline";
  }
  return "?";
}

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  // Trivial case: no rows -- each variable sits at its favorable bound.
  if (problem.num_rows() == 0) {
    LpSolution sol;
    sol.status = SolveStatus::kOptimal;
    sol.x.assign(problem.num_vars(), 0.0);
    for (int j = 0; j < problem.num_vars(); ++j) {
      const auto& v = problem.var(j);
      if (v.obj > 0) {
        if (!std::isfinite(v.lo)) { sol.status = SolveStatus::kUnbounded; break; }
        sol.x[j] = v.lo;
      } else if (v.obj < 0) {
        if (!std::isfinite(v.hi)) { sol.status = SolveStatus::kUnbounded; break; }
        sol.x[j] = v.hi;
      } else {
        sol.x[j] = std::isfinite(v.lo) ? v.lo : (std::isfinite(v.hi) ? v.hi : 0.0);
      }
    }
    if (sol.status == SolveStatus::kOptimal)
      sol.objective = problem.objective_value(sol.x);
    else
      sol.x.clear();
    return sol;
  }

  Simplex s(problem, options);
  return s.run();
}

}  // namespace pil::lp

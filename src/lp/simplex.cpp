#include "pil/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "pil/obs/journal.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/log.hpp"

namespace pil::lp {

namespace {

constexpr double kTol = 1e-9;          ///< reduced-cost / pivot tolerance
constexpr double kFeasTol = 1e-7;      ///< feasibility tolerance
constexpr int kRefactorInterval = 64;  ///< recompute x_B this often

/// Bounded-variable simplex working state. Column layout:
///   [0, n)        structural variables
///   [n, n+m)      slack variables (one per row; bounds encode the sense)
///   [n+m, total)  artificial variables (phase 1 only)
///
/// Each pivot costs what its non-zeros cost. The columns sit in one CSR
/// array. B^{-1} is stored dense, but each row keeps a short list of the
/// columns where it may be non-zero until it fills in past `list_cap_`
/// entries; btran and the B^{-1} update read a listed row through its list
/// and a filled-in row through the contiguous loop. Every skipped term is
/// an exact zero: added to a sum that starts from +0 it changes nothing,
/// and subtracted from a B^{-1} entry it can at most flip the sign of a
/// zero, which no later sum can see. Every other term is computed in the
/// plain dense loops' order, so x, the objective and every count are
/// bit-identical to theirs, as long as each product is rounded on its own
/// (the build sets -ffp-contract=off).
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
      if (phase_objective() > kFeasTol) {
        sol.status = SolveStatus::kInfeasible;
        sol.bound_flips = bound_flips_;
        return sol;
      }
      // Pin artificials to zero for phase 2: fixed, they never enter.
      for (int j = n_ + m_; j < total_; ++j) {
        lo_[j] = hi_[j] = 0.0;
        sign_[j] = 0.0;
      }
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

  /// CSR constraint columns, rhs and the structural + slack bound arrays,
  /// then the starting basis: slacks where they absorb the initial
  /// residual, artificials elsewhere.
  void build() {
    // Count pass, prefix sum, then a fill pass in row order, so each column
    // lists its entries in the order the rows name them (duplicates kept).
    // Slack n+i holds the single entry (i, 1).
    col_start_.assign(n_ + m_ + 2, 0);
    for (int i = 0; i < m_; ++i) {
      for (const auto& e : p_.row(i).entries) ++col_start_[e.var + 2];
      ++col_start_[n_ + i + 2];
    }
    for (int j = 2; j < n_ + m_ + 2; ++j) col_start_[j] += col_start_[j - 1];
    const int nnz = col_start_[n_ + m_ + 1];
    col_row_.reserve(nnz + m_);  // room for the artificials
    col_val_.reserve(nnz + m_);
    col_row_.resize(nnz);
    col_val_.resize(nnz);
    rhs_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const auto& row = p_.row(i);
      rhs_[i] = row.rhs;
      for (const auto& e : row.entries) {
        const int at = col_start_[e.var + 1]++;
        col_row_[at] = i;
        col_val_[at] = e.coef;
      }
      const int at = col_start_[n_ + i + 1]++;
      col_row_[at] = i;
      col_val_[at] = 1.0;
    }
    col_start_.pop_back();  // col_start_[j] now begins column j

    lo_.assign(n_ + m_, 0.0);
    hi_.assign(n_ + m_, 0.0);
    for (int j = 0; j < n_; ++j) {
      lo_[j] = p_.var(j).lo;
      hi_[j] = p_.var(j).hi;
    }
    // Slack bounds encode the row sense: a*x + s = b.
    for (int i = 0; i < m_; ++i) {
      const int j = n_ + i;
      switch (p_.row(i).sense) {
        case Sense::kLe: lo_[j] = 0.0;    hi_[j] = kInf; break;
        case Sense::kGe: lo_[j] = -kInf;  hi_[j] = 0.0;  break;
        case Sense::kEq: lo_[j] = 0.0;    hi_[j] = 0.0;  break;
      }
    }

    // Nonbasic start: every structural at its nearest finite bound (free
    // variables at zero).
    total_ = n_ + m_;
    val_.assign(total_, 0.0);
    free_.assign(total_, 0);
    any_free_ = false;
    for (int j = 0; j < n_; ++j) {
      if (std::isfinite(lo_[j])) {
        val_[j] = lo_[j];
      } else if (std::isfinite(hi_[j])) {
        val_[j] = hi_[j];
      } else {
        free_[j] = 1;
        any_free_ = true;
      }
    }
    sign_.assign(total_, 0.0);
    for (int j = 0; j < n_; ++j)
      if (!free_[j]) set_nonbasic(j, std::isfinite(lo_[j]));

    // Residual each slack would have to take; add an artificial where the
    // slack's bounds cannot absorb it.
    std::vector<double> resid = rhs_;
    for (int j = 0; j < n_; ++j) {
      if (val_[j] == 0.0) continue;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
        resid[col_row_[p]] -= col_val_[p] * val_[j];
    }
    basis_.assign(m_, -1);
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    // B^{-1} starts diagonal: every row lists its own column.
    list_cap_ = std::max(1, m_ / kListedShare);
    row_len_.assign(m_, 1);
    row_list_.assign(static_cast<std::size_t>(m_) * list_cap_, 0);
    listed_.assign(static_cast<std::size_t>(m_) * m_, 0);
    for (int i = 0; i < m_; ++i) {
      row_list_[static_cast<std::size_t>(i) * list_cap_] = i;
      listed_[static_cast<std::size_t>(i) * m_ + i] = 1;
    }
    num_artificials_ = 0;
    for (int i = 0; i < m_; ++i) {
      const int sj = n_ + i;
      if (resid[i] >= lo_[sj] - kFeasTol &&
          resid[i] <= hi_[sj] + kFeasTol) {
        basis_[i] = sj;
        binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
      } else {
        // Slack goes nonbasic at its nearest bound; artificial absorbs the
        // remainder with column sign(residual') * e_i so its value is >= 0.
        const double sb = (resid[i] < lo_[sj]) ? lo_[sj] : hi_[sj];
        set_nonbasic(sj, sb == lo_[sj]);
        val_[sj] = sb;
        const double rem = resid[i] - sb;
        const double sign = (rem >= 0) ? 1.0 : -1.0;
        col_row_.push_back(i);
        col_val_.push_back(sign);
        col_start_.push_back(static_cast<int>(col_row_.size()));
        lo_.push_back(0.0);
        hi_.push_back(kInf);
        val_.push_back(0.0);
        sign_.push_back(0.0);  // basic
        free_.push_back(0);
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

  /// Column j leaves the basis (or starts) at its lower or upper bound. Its
  /// pricing sign makes the merit test one product, sign * d > tol: -1 at
  /// lower (it may only increase), +1 at upper (it may only decrease), 0
  /// when fixed (it can never move), as for a basic column.
  void set_nonbasic(int j, bool at_lower) {
    sign_[j] = lo_[j] == hi_[j] ? 0.0 : (at_lower ? -1.0 : 1.0);
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
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      // add a * column i of B^{-1}
      const int i = col_row_[p];
      const double a = col_val_[p];
      const double* brow = binv_.data();
      for (int k = 0; k < m_; ++k)
        w[k] += a * brow[static_cast<std::size_t>(k) * m_ + i];
    }
  }

  /// y = (c_B)^T * B^{-1}.
  void btran(std::vector<double>& y) const {
    std::fill(y.begin(), y.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost_[basis_[i]];
      if (cb == 0.0) continue;
      const double* brow = &binv_[static_cast<std::size_t>(i) * m_];
      const int len = row_len_[i];
      if (len < 0) {
        for (int k = 0; k < m_; ++k) y[k] += cb * brow[k];
      } else {
        const int* list = &row_list_[static_cast<std::size_t>(i) * list_cap_];
        for (int t = 0; t < len; ++t) y[list[t]] += cb * brow[list[t]];
      }
    }
  }

  void recompute_xb() {
    // Basic columns hold val_ == 0, so only nonbasics off zero contribute.
    std::vector<double> beff = rhs_;
    for (int j = 0; j < total_; ++j) {
      if (val_[j] == 0.0) continue;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
        beff[col_row_[p]] -= col_val_[p] * val_[j];
    }
    for (int i = 0; i < m_; ++i) {
      const double* brow = &binv_[static_cast<std::size_t>(i) * m_];
      double v = 0.0;
      if (row_len_[i] == 1) {  // the one term that can be non-zero
        const int k = row_list_[static_cast<std::size_t>(i) * list_cap_];
        v += brow[k] * beff[k];
      } else {
        for (int k = 0; k < m_; ++k) v += brow[k] * beff[k];
      }
      xb_[i] = v;
    }
  }

  /// B^{-1} after q entered at basis position `leave` with ftran column w:
  /// row `leave` scaled by 1 / w[leave], every other row i with w[i] != 0
  /// less w[i] times it. Only the pivot row's non-zeros are touched; when
  /// they outnumber a row list, the rows they update have filled in too,
  /// and the contiguous loop takes them.
  void update_binv(int leave, const std::vector<double>& w) {
    const double piv = w[leave];
    PIL_ASSERT(std::fabs(piv) > kTol * 1e-3, "vanishing simplex pivot");
    double* prow = &binv_[static_cast<std::size_t>(leave) * m_];
    pivot_nz_.clear();
    if (row_len_[leave] < 0) {
      for (int k = 0; k < m_; ++k) {
        prow[k] /= piv;
        if (prow[k] != 0.0) pivot_nz_.push_back(k);
      }
    } else {
      // The list shrinks to the entries still non-zero.
      int* list = &row_list_[static_cast<std::size_t>(leave) * list_cap_];
      unsigned char* marks = &listed_[static_cast<std::size_t>(leave) * m_];
      for (int t = 0; t < row_len_[leave]; ++t) {
        const int k = list[t];
        prow[k] /= piv;
        if (prow[k] != 0.0)
          pivot_nz_.push_back(k);
        else
          marks[k] = 0;
      }
      std::copy(pivot_nz_.begin(), pivot_nz_.end(), list);
      row_len_[leave] = static_cast<int>(pivot_nz_.size());
    }
    const bool filled_in = static_cast<int>(pivot_nz_.size()) > list_cap_;
    for (int i = 0; i < m_; ++i) {
      if (i == leave || w[i] == 0.0) continue;
      double* irow = &binv_[static_cast<std::size_t>(i) * m_];
      const double f = w[i];
      if (filled_in) {
        for (int k = 0; k < m_; ++k) irow[k] -= f * prow[k];
        row_len_[i] = -1;
        continue;
      }
      for (const int k : pivot_nz_) irow[k] -= f * prow[k];
      if (row_len_[i] >= 0) list_union(i);
    }
  }

  /// Adds the pivot row's non-zero columns to row i's list; a row that
  /// would outgrow the list has filled in and leaves list upkeep for good.
  void list_union(int i) {
    int len = row_len_[i];
    int* list = &row_list_[static_cast<std::size_t>(i) * list_cap_];
    unsigned char* marks = &listed_[static_cast<std::size_t>(i) * m_];
    for (const int k : pivot_nz_) {
      if (marks[k]) continue;
      if (len == list_cap_) {
        len = -1;
        break;
      }
      marks[k] = 1;
      list[len++] = k;
    }
    row_len_[i] = len;
  }

  // ---- main loops ----------------------------------------------------------

  SolveStatus iterate(int& iter_accum) {
    std::vector<double> y(m_), w(m_);
    int degenerate_run = 0;
    // Counters stay in locals inside the loop (int stores through `this` or
    // the accumulator reference could alias basis_/sign_ writes and cost
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

      // Pricing: pick an entering column with a favorable reduced cost d.
      // Its merit is sign * d (0 for basic and fixed columns), or |d| for a
      // free column at zero. Dantzig takes the first largest merit above
      // tol, Bland the first one above it. The entering column moves
      // against its reduced cost.
      int q = -1;
      double best = kTol;
      double dq = 0.0;
      for (int j = 0; j < total_; ++j) {
        double d = cost_[j];
        for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
          d -= y[col_row_[p]] * col_val_[p];
        double merit = sign_[j] * d;
        if (any_free_ && free_[j]) merit = std::fabs(d);
        if (merit > best) {
          best = merit;
          q = j;
          dq = d;
          if (bland) break;
        }
      }
      if (q < 0) {
        result = SolveStatus::kOptimal;
        break;
      }
      const int dir = (dq < 0) ? +1 : -1;  // +1: entering increases

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
        if (wi > kTol) {  // basic value decreases toward its lower bound
          if (!std::isfinite(lo_[bj])) continue;
          t = (xb_[i] - lo_[bj]) / wi;
          to = lo_[bj];
        } else if (wi < -kTol) {  // increases toward its upper bound
          if (!std::isfinite(hi_[bj])) continue;
          t = (hi_[bj] - xb_[i]) / (-wi);
          to = hi_[bj];
        } else {
          continue;
        }
        if (t < 0) t = 0;  // numerical guard for slightly out-of-bound basics
        if (t < tmax - kTol) {
          // Strictly tighter than anything seen (including the bound flip).
          tmax = t;
          leave = i;
          leave_to = to;
        } else if (leave >= 0 && t <= tmax + kTol) {
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
      degenerate_run = (tmax <= kTol) ? degenerate_run + 1 : 0;

      if (leave < 0) {
        // Bound flip: entering runs to its opposite bound.
        ++flips;
        for (int i = 0; i < m_; ++i) xb_[i] -= dir * tmax * w[i];
        val_[q] = (dir > 0) ? hi_[q] : lo_[q];
        set_nonbasic(q, dir < 0);
        continue;
      }

      // Pivot: q enters the basis at position `leave`.
      const int out = basis_[leave];
      const double enter_val = val_[q] + dir * tmax;
      for (int i = 0; i < m_; ++i)
        if (i != leave) xb_[i] -= dir * tmax * w[i];
      xb_[leave] = enter_val;

      set_nonbasic(out, leave_to == lo_[out]);
      val_[out] = leave_to;
      sign_[q] = 0.0;
      free_[q] = 0;  // a free column never leaves the basis again
      val_[q] = 0.0;
      basis_[leave] = q;
      update_binv(leave, w);

      if ((iter + 1) % kRefactorInterval == 0) recompute_xb();
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

  /// A row list holds at most m / kListedShare columns; past that the row
  /// has filled in, and the contiguous loop over all m columns is cheaper
  /// than a gather through the list.
  static constexpr int kListedShare = 8;

  const LpProblem& p_;
  const SimplexOptions& opt_;
  int n_ = 0;
  int m_ = 0;
  int total_ = 0;
  int num_artificials_ = 0;
  int bound_flips_ = 0;
  bool any_free_ = false;

  std::vector<int> col_start_;   // CSR columns: column j is entries
  std::vector<int> col_row_;     //   [col_start_[j], col_start_[j + 1])
  std::vector<double> col_val_;
  std::vector<double> rhs_;
  std::vector<double> lo_, hi_;
  std::vector<double> cost_;
  std::vector<double> val_;      // nonbasic values (basic entries are 0)
  std::vector<double> sign_;     // pricing sign, see set_nonbasic
  std::vector<unsigned char> free_;  // free column at zero, nonbasic
  std::vector<int> basis_;       // column index basic in each row
  std::vector<double> binv_;     // dense m x m row-major B^{-1}
  std::vector<double> xb_;       // basic variable values by row
  int list_cap_ = 1;
  std::vector<int> row_len_;     // row i's list length; -1 once filled in
  std::vector<int> row_list_;    // m x list_cap_ listed columns per row
  std::vector<unsigned char> listed_;  // m x m: column k is in row i's list
  std::vector<int> pivot_nz_;    // non-zero columns of the pivot row
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

// Tests for the bounded-variable two-phase simplex solver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

#include "lp_corpus.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/lp/problem.hpp"
#include "pil/lp/simplex.hpp"
#include "pil/pilfill/session.hpp"
#include "pil/util/rng.hpp"
#include "pil/util/strings.hpp"

namespace pil::lp {
namespace {

// ------------------------------------------------------------ LpProblem ----

TEST(LpProblem, BuilderBasics) {
  LpProblem p;
  const int x = p.add_var(0, 10, 1.0);
  const int y = p.add_var(-kInf, kInf, -2.0);
  EXPECT_EQ(p.num_vars(), 2);
  p.add_row(Sense::kLe, 5.0, {{x, 1.0}, {y, 2.0}});
  EXPECT_EQ(p.num_rows(), 1);
  EXPECT_THROW(p.add_var(3, 2, 0.0), Error);
  EXPECT_THROW(p.add_row(Sense::kEq, 0.0, {{99, 1.0}}), Error);
}

TEST(LpProblem, ObjectiveValue) {
  LpProblem p;
  p.add_var(0, 10, 2.0);
  p.add_var(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(p.objective_value({3, 4}), 2.0);
  EXPECT_THROW(p.objective_value({1}), Error);
}

TEST(LpProblem, MaxViolation) {
  LpProblem p;
  p.add_var(0, 5, 0.0);
  p.add_row(Sense::kGe, 3.0, {{0, 1.0}});
  EXPECT_DOUBLE_EQ(p.max_violation({4}), 0.0);
  EXPECT_DOUBLE_EQ(p.max_violation({2}), 1.0);
  EXPECT_DOUBLE_EQ(p.max_violation({6}), 1.0);  // bound violation
}

// --------------------------------------------------------------- solver ----

TEST(Simplex, NoRowsSitsAtFavorableBounds) {
  LpProblem p;
  p.add_var(1, 4, 2.0);   // min 2x -> x = 1
  p.add_var(1, 4, -3.0);  // min -3y -> y = 4
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[0], 1.0);
  EXPECT_DOUBLE_EQ(s.x[1], 4.0);
  EXPECT_DOUBLE_EQ(s.objective, -10.0);
}

TEST(Simplex, NoRowsUnbounded) {
  LpProblem p;
  p.add_var(0, kInf, -1.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  LpProblem p;
  const int x = p.add_var(0, kInf, -3.0);
  const int y = p.add_var(0, kInf, -5.0);
  p.add_row(Sense::kLe, 4, {{x, 1.0}});
  p.add_row(Sense::kLe, 12, {{y, 2.0}});
  p.add_row(Sense::kLe, 18, {{x, 3.0}, {y, 2.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y s.t. x + y = 5, x - y = 1 -> (3, 2), obj 7.
  LpProblem p;
  const int x = p.add_var(-kInf, kInf, 1.0);
  const int y = p.add_var(-kInf, kInf, 2.0);
  p.add_row(Sense::kEq, 5, {{x, 1.0}, {y, 1.0}});
  p.add_row(Sense::kEq, 1, {{x, 1.0}, {y, -1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(Simplex, GreaterThanConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 0 -> (4, 0), obj 8.
  LpProblem p;
  const int x = p.add_var(1, kInf, 2.0);
  const int y = p.add_var(0, kInf, 3.0);
  p.add_row(Sense::kGe, 4, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  const int x = p.add_var(0, 1, 1.0);
  p.add_row(Sense::kGe, 5, {{x, 1.0}});
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualities) {
  LpProblem p;
  const int x = p.add_var(-kInf, kInf, 0.0);
  p.add_row(Sense::kEq, 1, {{x, 1.0}});
  p.add_row(Sense::kEq, 2, {{x, 1.0}});
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x s.t. x - y <= 1, x, y >= 0: ray x = y + 1.
  LpProblem p;
  const int x = p.add_var(0, kInf, -1.0);
  const int y = p.add_var(0, kInf, 0.0);
  p.add_row(Sense::kLe, 1, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, BoundFlipsOnly) {
  // min -x - y with x, y in [0, 3] and a loose row: both at upper bound.
  LpProblem p;
  const int x = p.add_var(0, 3, -1.0);
  const int y = p.add_var(0, 3, -1.0);
  p.add_row(Sense::kLe, 100, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x s.t. x >= -5 (bound), x + 3 >= 0 (row) -> x = -3.
  LpProblem p;
  const int x = p.add_var(-5, 5, 1.0);
  p.add_row(Sense::kGe, -3, {{x, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);
}

TEST(Simplex, FixedVariables) {
  LpProblem p;
  const int x = p.add_var(2, 2, 5.0);  // fixed
  const int y = p.add_var(0, kInf, 1.0);
  p.add_row(Sense::kGe, 6, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[0], 2.0);
  EXPECT_NEAR(s.x[1], 4.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Highly degenerate: many redundant rows through the origin.
  LpProblem p;
  const int x = p.add_var(0, kInf, -1.0);
  const int y = p.add_var(0, kInf, -1.0);
  for (int i = 1; i <= 6; ++i)
    p.add_row(Sense::kLe, 0.0, {{x, 1.0 * i}, {y, -1.0 * i}});
  p.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0] + s.x[1], 10.0, 1e-8);
}

TEST(Simplex, TransportationProblem) {
  // 2 supplies (10, 20), 3 demands (8, 12, 10); costs chosen so the optimum
  // is known: c = [[4,6,9],[5,3,2]] -> ship s1->d1:8, s1->d2:2, s2->d2:10,
  // s2->d3:10; cost = 32+12+30+20 = 94.
  LpProblem p;
  const double cost[2][3] = {{4, 6, 9}, {5, 3, 2}};
  int v[2][3];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) v[i][j] = p.add_var(0, kInf, cost[i][j]);
  p.add_row(Sense::kEq, 10, {{v[0][0], 1.}, {v[0][1], 1.}, {v[0][2], 1.}});
  p.add_row(Sense::kEq, 20, {{v[1][0], 1.}, {v[1][1], 1.}, {v[1][2], 1.}});
  p.add_row(Sense::kEq, 8, {{v[0][0], 1.}, {v[1][0], 1.}});
  p.add_row(Sense::kEq, 12, {{v[0][1], 1.}, {v[1][1], 1.}});
  p.add_row(Sense::kEq, 10, {{v[0][2], 1.}, {v[1][2], 1.}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 94.0, 1e-7);
}

TEST(Simplex, IterationLimitIsReported) {
  Rng rng(8);
  LpProblem p;
  const int n = 20;
  for (int j = 0; j < n; ++j) p.add_var(0, 5, rng.uniform_real(-1, 1));
  for (int i = 0; i < 15; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j) entries.push_back({j, rng.uniform_real(-1, 2)});
    p.add_row(Sense::kLe, rng.uniform_real(1, 5), std::move(entries));
  }
  SimplexOptions opt;
  opt.max_iterations = 1;
  const LpSolution s = solve_lp(p, opt);
  EXPECT_TRUE(s.status == SolveStatus::kIterLimit ||
              s.status == SolveStatus::kOptimal);
}

TEST(Simplex, DuplicateVariablesInRowAreSummed) {
  // The builder documents that duplicate entries accumulate: 2x via two
  // entries of coefficient 1.
  LpProblem p;
  const int x = p.add_var(0, 10, -1.0);
  p.add_row(Sense::kLe, 6, {{x, 1.0}, {x, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(Simplex, TinyCoefficientsStayStable) {
  // Badly scaled but solvable: 1e-6 coefficients against 1e6 bounds.
  LpProblem p;
  const int x = p.add_var(0, 2e6, -1.0);
  p.add_row(Sense::kLe, 1.5, {{x, 1e-6}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.5e6, 1.0);
}

TEST(Simplex, StatusToString) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterLimit), "iteration-limit");
}

// --------------------------------------------------- randomized properties ----

/// Random LPs with a known feasible point: verify optimality via weak
/// duality surrogate -- the solver's solution must be feasible and at least
/// as good as many random feasible points.
TEST(SimplexProperty, BeatsRandomFeasiblePoints) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 4));
    const int m = 1 + static_cast<int>(rng.uniform_int(0, 5));
    LpProblem p;
    for (int j = 0; j < n; ++j)
      p.add_var(0, rng.uniform_real(0.5, 4.0), rng.uniform_real(-2, 2));
    // Rows of the form sum a_j x_j <= b with b large enough that x = 0 is
    // feasible (a_j may be negative, then 0 <= b still needs b >= 0).
    std::vector<std::vector<double>> a(m, std::vector<double>(n));
    std::vector<double> bvec(m);
    for (int i = 0; i < m; ++i) {
      std::vector<RowEntry> entries;
      for (int j = 0; j < n; ++j) {
        a[i][j] = rng.uniform_real(-1, 2);
        entries.push_back({j, a[i][j]});
      }
      bvec[i] = rng.uniform_real(0.0, 3.0);
      p.add_row(Sense::kLe, bvec[i], std::move(entries));
    }
    const LpSolution s = solve_lp(p);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_LT(p.max_violation(s.x), 1e-6);
    // Sample feasible points by scaling random points into the feasible set.
    for (int probe = 0; probe < 40; ++probe) {
      std::vector<double> x(n);
      for (int j = 0; j < n; ++j)
        x[j] = rng.uniform_real(0, p.var(j).hi);
      // Scale toward 0 until feasible (0 is feasible).
      double scale = 1.0;
      for (int i = 0; i < m; ++i) {
        double lhs = 0;
        for (int j = 0; j < n; ++j) lhs += a[i][j] * x[j];
        if (lhs > bvec[i]) scale = std::min(scale, bvec[i] / lhs);
      }
      for (auto& xi : x) xi *= std::max(scale, 0.0);
      EXPECT_LE(s.objective, p.objective_value(x) + 1e-6);
    }
  }
}

/// LPs with equality-sum structure (the MDFC shape): sum x = F with costs.
/// The LP optimum is the greedy fractional allocation; verify against it.
TEST(SimplexProperty, MatchesGreedyOnKnapsackRelaxation) {
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 7));
    std::vector<double> cost(n), cap(n);
    LpProblem p;
    std::vector<RowEntry> sum_row;
    double total_cap = 0;
    for (int j = 0; j < n; ++j) {
      cost[j] = rng.uniform_real(0, 5);
      cap[j] = 1 + static_cast<double>(rng.uniform_int(0, 4));
      total_cap += cap[j];
      p.add_var(0, cap[j], cost[j]);
      sum_row.push_back({j, 1.0});
    }
    const double f = std::floor(rng.uniform_real(0, total_cap));
    p.add_row(Sense::kEq, f, std::move(sum_row));
    const LpSolution s = solve_lp(p);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);

    // Greedy fractional fill by ascending cost.
    std::vector<int> order(n);
    for (int j = 0; j < n; ++j) order[j] = j;
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return cost[x] < cost[y]; });
    double left = f, greedy_obj = 0;
    for (const int j : order) {
      const double take = std::min(left, cap[j]);
      greedy_obj += take * cost[j];
      left -= take;
    }
    EXPECT_NEAR(s.objective, greedy_obj, 1e-6) << "trial " << trial;
  }
}

// ---- exact oracle: brute-force vertex enumeration --------------------------

namespace oracle {

/// Solve an n x n linear system by Gaussian elimination with partial
/// pivoting; returns false when (numerically) singular.
bool solve_square(std::vector<std::vector<double>> a, std::vector<double> b,
                  std::vector<double>& x) {
  const int n = static_cast<int>(b.size());
  for (int col = 0; col < n; ++col) {
    int piv = col;
    for (int row = col + 1; row < n; ++row)
      if (std::fabs(a[row][col]) > std::fabs(a[piv][col])) piv = row;
    if (std::fabs(a[piv][col]) < 1e-9) return false;
    std::swap(a[piv], a[col]);
    std::swap(b[piv], b[col]);
    for (int row = 0; row < n; ++row) {
      if (row == col) continue;
      const double f = a[row][col] / a[col][col];
      for (int k = col; k < n; ++k) a[row][k] -= f * a[col][k];
      b[row] -= f * b[col];
    }
  }
  x.assign(n, 0.0);
  for (int i = 0; i < n; ++i) x[i] = b[i] / a[i][i];
  return true;
}

/// Exact optimum of a small LP (finite bounds, <= rows) by enumerating all
/// vertices: every subset of n constraints taken as equalities, from the
/// row set plus both bounds of every variable. Returns +inf when
/// infeasible. Only valid for bounded feasible sets (finite var bounds).
double brute_force_min(const LpProblem& p) {
  const int n = p.num_vars();
  // Constraint list: (coefs, rhs) rows first, then x_j = lo_j / hi_j.
  std::vector<std::vector<double>> coefs;
  std::vector<double> rhs;
  for (int i = 0; i < p.num_rows(); ++i) {
    std::vector<double> row(n, 0.0);
    for (const auto& e : p.row(i).entries) row[e.var] += e.coef;
    coefs.push_back(std::move(row));
    rhs.push_back(p.row(i).rhs);
  }
  for (int j = 0; j < n; ++j) {
    std::vector<double> lo(n, 0.0), hi(n, 0.0);
    lo[j] = 1.0;
    hi[j] = 1.0;
    coefs.push_back(lo);
    rhs.push_back(p.var(j).lo);
    coefs.push_back(hi);
    rhs.push_back(p.var(j).hi);
  }
  const int total = static_cast<int>(coefs.size());

  double best = std::numeric_limits<double>::infinity();
  std::vector<int> pick(n, 0);
  // Enumerate n-subsets via simple index vectors.
  std::vector<int> idx(n);
  for (int j = 0; j < n; ++j) idx[j] = j;
  while (true) {
    std::vector<std::vector<double>> a(n, std::vector<double>(n));
    std::vector<double> b(n);
    for (int j = 0; j < n; ++j) {
      a[j] = coefs[idx[j]];
      b[j] = rhs[idx[j]];
    }
    std::vector<double> x;
    if (solve_square(a, b, x) && p.max_violation(x) < 1e-7)
      best = std::min(best, p.objective_value(x));
    // next combination
    int j = n - 1;
    while (j >= 0 && idx[j] == total - n + j) --j;
    if (j < 0) break;
    ++idx[j];
    for (int k = j + 1; k < n; ++k) idx[k] = idx[k - 1] + 1;
  }
  return best;
}

}  // namespace oracle

TEST(SimplexOracle, MatchesVertexEnumeration) {
  Rng rng(90210);
  int solved = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 1));  // 2..3 vars
    const int m = 1 + static_cast<int>(rng.uniform_int(0, 3));  // 1..4 rows
    LpProblem p;
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform_real(-3, 1);
      p.add_var(lo, lo + rng.uniform_real(0.5, 5), rng.uniform_real(-2, 2));
    }
    for (int i = 0; i < m; ++i) {
      std::vector<RowEntry> entries;
      for (int j = 0; j < n; ++j)
        entries.push_back({j, rng.uniform_real(-2, 2)});
      p.add_row(Sense::kLe, rng.uniform_real(-2, 4), std::move(entries));
    }
    const double exact = oracle::brute_force_min(p);
    const LpSolution s = solve_lp(p);
    if (std::isinf(exact)) {
      // The oracle found no feasible vertex; with finite boxes the LP is
      // infeasible iff no vertex is feasible.
      EXPECT_EQ(s.status, SolveStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(s.objective, exact, 1e-6) << "trial " << trial;
      EXPECT_LT(p.max_violation(s.x), 1e-6);
      ++solved;
    }
  }
  EXPECT_GT(solved, 150);  // most random boxes are feasible
}

TEST(SimplexOracle, EqualityRowsAgainstEnumeration) {
  // Mixed <= and == rows: convert == to a pair of <= for the oracle.
  Rng rng(777);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 1));
    LpProblem p;       // solved by simplex (with the equality)
    LpProblem p_le;    // oracle twin (equality as two inequalities)
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform_real(-2, 0);
      const double hi = lo + rng.uniform_real(1, 4);
      const double c = rng.uniform_real(-2, 2);
      p.add_var(lo, hi, c);
      p_le.add_var(lo, hi, c);
    }
    std::vector<RowEntry> eq;
    for (int j = 0; j < n; ++j) eq.push_back({j, rng.uniform_real(-1, 2)});
    const double target = rng.uniform_real(-1, 2);
    p.add_row(Sense::kEq, target, eq);
    p_le.add_row(Sense::kLe, target, eq);
    std::vector<RowEntry> neg;
    for (const auto& e : eq) neg.push_back({e.var, -e.coef});
    p_le.add_row(Sense::kLe, -target, std::move(neg));

    const double exact = oracle::brute_force_min(p_le);
    const LpSolution s = solve_lp(p);
    if (std::isinf(exact)) {
      EXPECT_EQ(s.status, SolveStatus::kInfeasible) << "trial " << trial;
    } else {
      ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(s.objective, exact, 1e-6) << "trial " << trial;
    }
  }
}

TEST(Simplex, ManyDegenerateRowsStillTerminate) {
  // A cycling-prone family: many rows active at the optimum.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    LpProblem p;
    const int n = 4;
    for (int j = 0; j < n; ++j) p.add_var(0, 10, rng.uniform_real(-1, -0.1));
    for (int i = 0; i < 12; ++i) {
      std::vector<RowEntry> entries;
      for (int j = 0; j < n; ++j)
        entries.push_back({j, std::floor(rng.uniform_real(0, 3))});
      p.add_row(Sense::kLe, 6, std::move(entries));
    }
    const LpSolution s = solve_lp(p);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_LT(p.max_violation(s.x), 1e-6);
    EXPECT_LT(s.iterations, 5000);
  }
}

TEST(Simplex, FreeVariablesInEqualities) {
  // min x + y with x free, x + y = 3, y in [0, 1] -> y = 1? No: objective
  // pushes x down without bound... x + y = 3 ties them: obj = 3 constant.
  LpProblem p;
  const int x = p.add_var(-kInf, kInf, 1.0);
  const int y = p.add_var(0, 1, 1.0);
  p.add_row(Sense::kEq, 3, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-8);
  // And a genuinely unbounded free-variable case.
  LpProblem q;
  const int u = q.add_var(-kInf, kInf, 1.0);
  const int v = q.add_var(-kInf, kInf, -1.0);
  q.add_row(Sense::kLe, 5, {{u, 1.0}, {v, 1.0}});
  EXPECT_EQ(solve_lp(q).status, SolveStatus::kUnbounded);
}


// ---------------------------------------------------- pinned pivot path ----

/// FNV-1a over everything a solve reports: status, the three iteration
/// counts, and the bits of the objective and of every x. Two kernels that
/// take the same pivots in the same floating-point order hash alike.
std::uint64_t fold(std::uint64_t h, const LpSolution& s) {
  const auto mix = [&h](const void* p, std::size_t n) {
    h = fnv1a64(std::string_view(static_cast<const char*>(p), n), h);
  };
  const int counts[] = {static_cast<int>(s.status), s.iterations,
                        s.phase1_iterations, s.bound_flips};
  mix(counts, sizeof counts);
  mix(&s.objective, sizeof s.objective);
  if (!s.x.empty()) mix(s.x.data(), s.x.size() * sizeof(double));
  return h;
}

/// The window LPs of src/density/fill_target.cpp on T2: one variable per
/// tile (its fill area, capped by its slack capacity), min-var's M, and a
/// >= and a <= row per window, with the targeter's automatic L and U.
struct WindowLps {
  LpProblem min_var, min_fill;
};

WindowLps t2_window_lps(double window_um, int r) {
  const layout::Layout l = layout::make_testcase_t2();
  pilfill::FlowConfig config;
  config.window_um = window_um;
  config.r = r;
  config.required_per_tile.assign(
      grid::Dissection(l.die(), window_um, r).num_tiles(), 0);
  const pilfill::FillSession session(l, config);
  const grid::Dissection& dis = session.dissection();
  const grid::DensityMap& wires = session.wires();
  const double fa = config.rules.feature_area();
  const double L = wires.stats().max_density;
  const double U = L + 2 * fa / (window_um * window_um);

  WindowLps out;
  for (const bool min_fill : {false, true}) {
    LpProblem& p = min_fill ? out.min_fill : out.min_var;
    for (int t = 0; t < dis.num_tiles(); ++t)
      p.add_var(0.0, session.global_slack().tile_capacity(t) * fa,
                min_fill ? 1.0 : 0.0);
    const int m_var = min_fill ? -1 : p.add_var(0.0, L, -1.0);
    for (int wy = 0; wy < dis.windows_y(); ++wy) {
      for (int wx = 0; wx < dis.windows_x(); ++wx) {
        const double area = dis.window_rect(wx, wy).area();
        const double wire = wires.window_area(wx, wy);
        std::vector<RowEntry> le;
        for (int iy = wy; iy < wy + r; ++iy)
          for (int ix = wx; ix < wx + r; ++ix)
            le.push_back({dis.tile_flat({ix, iy}), 1.0});
        std::vector<RowEntry> ge = le;
        if (!min_fill) ge.push_back({m_var, -area});
        p.add_row(Sense::kGe, (min_fill ? L * area : 0.0) - wire,
                  std::move(ge));
        p.add_row(Sense::kLe, U * area - wire, std::move(le));
      }
    }
  }
  return out;
}

/// Boxed variables, rows of a random sense with dense random coefficients:
/// <= rows start feasible at the slack basis, >= and == rows need phase 1.
LpProblem random_lp(Rng& rng, Sense sense) {
  LpProblem p;
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 6));
  // Fewer equality rows, or most of those LPs are infeasible.
  const int m =
      1 + static_cast<int>(rng.uniform_int(0, sense == Sense::kEq ? 2 : 5));
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform_real(-3, 1);
    p.add_var(lo, lo + rng.uniform_real(0.5, 5), rng.uniform_real(-2, 2));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.7)) entries.push_back({j, rng.uniform_real(-2, 2)});
    if (entries.empty()) entries.push_back({0, 1.0});
    p.add_row(sense, rng.uniform_real(-2, 4), std::move(entries));
  }
  return p;
}

/// Free variables (both bounds infinite) next to boxed ones, tied by
/// equality and <= rows: they start at zero, may enter in either direction
/// and never leave, and some of these LPs are unbounded.
LpProblem free_variable_lp(Rng& rng) {
  LpProblem p;
  const int n = 3 + static_cast<int>(rng.uniform_int(0, 4));
  for (int j = 0; j < n; ++j) {
    if (rng.bernoulli(0.4))
      p.add_var(-kInf, kInf, rng.uniform_real(-1, 1));
    else
      p.add_var(0.0, rng.uniform_real(1, 4), rng.uniform_real(-2, 2));
  }
  const int m = 2 + static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < m; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) entries.push_back({j, rng.uniform_real(-2, 2)});
    if (entries.empty()) entries.push_back({i % n, 1.0});
    p.add_row(rng.bernoulli(0.5) ? Sense::kEq : Sense::kLe,
              rng.uniform_real(-2, 2), std::move(entries));
  }
  return p;
}

/// Every pivot the kernel takes, pinned: each corpus's solutions hash to
/// the value recorded for it. A kernel that prices, ratio-tests or updates
/// in a different order moves some iteration count or some bit of x, and
/// with it the hash.
TEST(Simplex, PivotPathIsPinned) {
  const auto check = [](const char* corpus, std::uint64_t got,
                        std::uint64_t want) {
    EXPECT_EQ(got, want) << corpus << ": 0x" << std::hex << got;
  };

  // The targeters' dense window LPs. Min-fill at 32/8 is left out: it
  // alone takes ~14 s.
  const WindowLps w4 = t2_window_lps(32, 4);
  check("min-var window LP 32/4", fold(kFnv1a64Offset, solve_lp(w4.min_var)),
        0x1a8a9e319a2b5d24ull);
  check("min-fill window LP 32/4",
        fold(kFnv1a64Offset, solve_lp(w4.min_fill)), 0x9390a7d40006e13full);
  check("min-var window LP 32/8",
        fold(kFnv1a64Offset, solve_lp(t2_window_lps(32, 8).min_var)),
        0x925d8ecd1fbca8c5ull);

  // The generated corpora: 200 LPs each from one stream.
  Rng rng(4711);
  const auto corpus_hash = [&](auto&& make) {
    std::uint64_t h = kFnv1a64Offset;
    for (int trial = 0; trial < 200; ++trial) h = fold(h, solve_lp(make()));
    return h;
  };
  check("random <= LPs",
        corpus_hash([&] { return random_lp(rng, Sense::kLe); }),
        0x454f6a291d7bbab2ull);
  check("random >= LPs",
        corpus_hash([&] { return random_lp(rng, Sense::kGe); }),
        0xb0f2e633ad84e338ull);
  check("random == LPs",
        corpus_hash([&] { return random_lp(rng, Sense::kEq); }),
        0x54477a5b803fe2cdull);
  check("free-variable LPs",
        corpus_hash([&] { return free_variable_lp(rng); }),
        0x995fdddef70b387full);

  // Beale's LP and the primal-degenerate family, with the automatic Bland
  // switch and with Bland's rule from the first pivot.
  SimplexOptions bland;
  bland.degenerate_switch = 0;
  std::uint64_t h = kFnv1a64Offset;
  for (const SimplexOptions& opt : {SimplexOptions{}, bland}) {
    h = fold(h, solve_lp(corpus::beale_lp(), opt));
    Rng drng(201);
    for (int trial = 0; trial < 200; ++trial)
      h = fold(h, solve_lp(corpus::random_degenerate_lp(drng), opt));
  }
  check("degenerate LPs", h, 0xbb402626f3fc70bcull);
}

}  // namespace
}  // namespace pil::lp

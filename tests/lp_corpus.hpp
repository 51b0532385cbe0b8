#pragma once
// Degenerate and cycling-prone LPs shared by the simplex fuzz loop
// (test_fuzz.cpp, slow) and the pinned pivot path (test_lp.cpp, tier-1).

#include <vector>

#include "pil/lp/problem.hpp"
#include "pil/util/rng.hpp"

namespace pil::lp::corpus {

/// Beale's classic cycling example: under naive Dantzig pricing with a
/// lowest-index ratio tie-break the simplex cycles through six bases
/// forever. The optimum is -0.05 at x = (1/25, 0, 1, 0).
inline LpProblem beale_lp() {
  LpProblem p;
  p.add_var(0.0, kInf, -0.75);
  p.add_var(0.0, kInf, 150.0);
  p.add_var(0.0, kInf, -0.02);
  p.add_var(0.0, kInf, 6.0);
  p.add_row(Sense::kLe, 0.0,
            {{0, 0.25}, {1, -60.0}, {2, -1.0 / 25.0}, {3, 9.0}});
  p.add_row(Sense::kLe, 0.0,
            {{0, 0.5}, {1, -90.0}, {2, -1.0 / 50.0}, {3, 3.0}});
  p.add_row(Sense::kLe, 1.0, {{2, 1.0}});
  return p;
}

/// Primal-degenerate LP: a block of rhs-zero kLe rows with small-integer
/// coefficients is active at the origin, so the early ratio tests are all
/// zero-length steps with exact ties among the blocking basics.
inline LpProblem random_degenerate_lp(Rng& rng) {
  LpProblem p;
  const int n = static_cast<int>(rng.uniform_int(3, 7));
  for (int j = 0; j < n; ++j)
    p.add_var(0.0, rng.uniform_real(1.0, 4.0), rng.uniform_real(-2.0, 2.0));
  const int zero_rows = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < zero_rows; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6))
        entries.push_back({j, rng.bernoulli(0.5) ? 1.0 : 2.0});
    if (entries.empty())
      entries.push_back({static_cast<int>(rng.uniform_int(0, n - 1)), 1.0});
    p.add_row(Sense::kLe, 0.0, std::move(entries));
  }
  // One ordinary row so the instance is not entirely pinned at the origin
  // (and phase 1 sometimes needs an artificial that leaves degenerately).
  std::vector<RowEntry> mix;
  for (int j = 0; j < n; ++j)
    if (rng.bernoulli(0.5)) mix.push_back({j, rng.uniform_real(-2.0, 2.0)});
  if (mix.empty()) mix.push_back({0, 1.0});
  p.add_row(rng.bernoulli(0.3) ? Sense::kEq : Sense::kGe,
            rng.uniform_real(-1.0, 1.0), std::move(mix));
  return p;
}

}  // namespace pil::lp::corpus

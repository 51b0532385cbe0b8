/// \file bench_table1.cpp
/// Reproduces Table 1 of the paper: NON-WEIGHTED total delay increase of
/// fill inserted by Normal / ILP-I / ILP-II / Greedy over the 12
/// configurations {T1,T2} x W in {32,20} um x r in {2,4,8}, with per-method
/// solve CPU. The paper's absolute taus (a 2003 industrial 300 MHz testbed)
/// are not reproducible; the shape to check is: ILP-II always best, 25-90%
/// reduction at coarse dissections, the win shrinking as r grows, Greedy
/// between Normal and ILP-II, and ILP-II the slowest-but-practical solver.

#include "table_common.hpp"

int main() {
  return pil::bench::run_table_main(
      "=== Table 1: non-weighted PIL-Fill synthesis ===",
      pil::pilfill::Objective::kNonWeighted,
      +[](const pil::pilfill::DelayImpact& i) { return i.delay_ps; });
}

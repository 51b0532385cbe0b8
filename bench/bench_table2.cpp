/// \file bench_table2.cpp
/// Reproduces Table 2 of the paper: WEIGHTED total delay increase (each
/// active line's delay increment multiplied by its number of downstream
/// sinks, Section 4) for the same 12 configurations as Table 1. The solvers
/// optimize the weighted objective here, exactly as in the paper.

#include "table_common.hpp"

int main() {
  return pil::bench::run_table_main(
      "=== Table 2: weighted PIL-Fill synthesis ===",
      pil::pilfill::Objective::kWeighted,
      +[](const pil::pilfill::DelayImpact& i) { return i.weighted_delay_ps; });
}

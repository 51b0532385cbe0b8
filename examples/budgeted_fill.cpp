/// \file budgeted_fill.cpp
/// The timing-closure integration the paper's conclusion sketches: every
/// net carries a delay allowance (as a stand-in for budgeted slack from an
/// incremental STA engine), allowances translate to coupling-capacitance
/// budgets, and fill is inserted so that *no net ever exceeds its budget* --
/// density shortfall, not timing, absorbs any infeasibility.
///
///   $ ./budgeted_fill [allowance_ps_per_net]

#include <algorithm>
#include <iostream>

#include "pil/pil.hpp"

int main(int argc, char** argv) {
  using namespace pil;
  const double allowance_ps =
      argc > 1 ? parse_double(argv[1], "allowance") : 0.002;

  const layout::Layout chip = layout::make_testcase_t2();
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FillSession session(chip, flow);

  pilfill::BudgetedConfig budgets;
  budgets.net_cap_budget_ff = pilfill::budgets_from_delay_ps(
      session.pieces(), static_cast<int>(chip.num_nets()), allowance_ps);

  const pilfill::BudgetedFlowResult res =
      pilfill::run_budgeted_pil_fill_flow(session, budgets);

  double max_used = 0, max_budget = 0;
  int binding = 0;
  for (std::size_t n = 0; n < budgets.net_cap_budget_ff.size(); ++n) {
    max_used = std::max(max_used, res.allocation.net_cap_used_ff[n]);
    max_budget = std::max(max_budget, budgets.net_cap_budget_ff[n]);
    if (res.allocation.net_cap_used_ff[n] >
        0.99 * budgets.net_cap_budget_ff[n])
      ++binding;
  }

  std::cout << "per-net delay allowance : " << allowance_ps << " ps\n"
            << "prescribed fill         : " << session.target().total_features
            << " features\n"
            << "placed / shortfall      : " << res.allocation.placed << " / "
            << res.allocation.shortfall << "\n"
            << "exact delay impact      : " << res.impact.delay_ps << " ps\n"
            << "max net coupling used   : " << max_used << " fF\n"
            << "max budget utilization  : "
            << res.allocation.max_budget_utilization << " (" << binding
            << " nets at >99% of budget)\n"
            << "solve time              : " << res.solve_seconds << " s\n";

  layout::write_svg_file(chip, res.features, "budgeted_fill.svg");
  std::cout << "wrote budgeted_fill.svg\n";
  return 0;
}

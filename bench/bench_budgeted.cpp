/// \file bench_budgeted.cpp
/// Capacitance-budgeted PIL-Fill (the paper's Section-7 "ongoing research"):
/// derive per-net coupling budgets from a per-net delay allowance, sweep the
/// allowance, and report how the hard per-net guarantee trades against the
/// fill shortfall. The unbudgeted column shows what an unconstrained
/// timing-aware flow would charge the worst net.
///
/// Exits 1 unless (a) no row's max budget utilization passes 1 (+1e-9),
/// (b) as the allowance tightens, placed never rises and shortfall never
/// falls and (c) the unbudgeted row has no shortfall.

#include <algorithm>
#include <iostream>
#include <vector>

#include "pil/pil.hpp"

int main() {
  using namespace pil;

  const layout::Layout chip = layout::make_testcase_t2();
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FillSession session(chip, flow);  // one prep for the sweep

  std::cout << "=== Budgeted PIL-Fill: per-net delay allowance sweep "
               "(T2, W=32, r=4) ===\n\n";
  Table table({"allowance (ps/net)", "placed", "shortfall", "exact tau (ps)",
               "max net dC (fF)", "max utilization"});

  std::vector<pilfill::BudgetedResult> rows;  // loosest allowance first
  auto run = [&](const char* label, const pilfill::BudgetedConfig& cfg) {
    const pilfill::BudgetedFlowResult r =
        pilfill::run_budgeted_pil_fill_flow(session, cfg);
    rows.push_back(r.allocation);
    double max_dc = 0;
    for (const double u : r.allocation.net_cap_used_ff)
      max_dc = std::max(max_dc, u);
    table.add_row({label, std::to_string(r.allocation.placed),
                   std::to_string(r.allocation.shortfall),
                   format_double(r.impact.delay_ps, 5),
                   format_double(max_dc, 5),
                   format_double(r.allocation.max_budget_utilization, 3)});
  };

  run("unbudgeted", pilfill::BudgetedConfig{});
  for (const double ps : {0.01, 0.003, 0.001, 0.0003, 0.0001}) {
    pilfill::BudgetedConfig cfg;
    cfg.net_cap_budget_ff = pilfill::budgets_from_delay_ps(
        session.pieces(), static_cast<int>(chip.num_nets()), ps);
    run(format_double(ps, 4).c_str(), cfg);
  }
  table.print(std::cout);
  std::cout << "\nBudgets are hard constraints: utilization never exceeds "
               "1.0; density shortfall\nabsorbs the infeasibility instead "
               "(the waiver a fab would have to sign off).\n";

  bool ok = rows.front().shortfall == 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ok = ok && rows[i].max_budget_utilization <= 1.0 + 1e-9;
    if (i > 0)
      ok = ok && rows[i].placed <= rows[i - 1].placed &&
           rows[i].shortfall >= rows[i - 1].shortfall;
  }
  return ok ? 0 : 1;
}

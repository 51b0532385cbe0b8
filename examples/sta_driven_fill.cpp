/// \file sta_driven_fill.cpp
/// The paper's Section-7 timing-closure flow, end to end:
///
///   1. net-level STA under a clock-period constraint,
///   2. slack -> per-net criticality weights and capacitance budgets,
///   3. three fill flavors at identical density control:
///        a. plain weighted ILP-II (timing-aware, slack-blind),
///        b. criticality-weighted ILP-II (critical nets cost more),
///        c. slack-budgeted fill (critical nets are untouchable),
///   4. a worst-case post-fill slack bound per flavor.
///
///   $ ./sta_driven_fill [required_ps]

#include <algorithm>
#include <iostream>

#include "pil/pil.hpp"

int main(int argc, char** argv) {
  using namespace pil;
  const double required_ps =
      argc > 1 ? parse_double(argv[1], "required") : 6.0;

  const layout::Layout chip = layout::make_testcase_t2();
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  flow.objective = pilfill::Objective::kWeighted;
  // One prep serves the STA, the plain ILP-II run, the budgeted flow and
  // the per-net read-out.
  pilfill::FillSession session(chip, flow);
  const auto& pieces = session.pieces();

  // --- 1. STA --------------------------------------------------------------
  sta::TimingConstraints constraints;
  constraints.default_required_ps = required_ps;
  const sta::TimingReport timing =
      sta::analyze_timing(session.trees(), constraints);
  std::cout << "pre-fill STA @ required " << required_ps << " ps: WNS "
            << format_double(timing.worst_slack_ps, 3) << " ps, "
            << timing.failing_nets << "/" << chip.num_nets()
            << " nets critical\n\n";

  // --- 2. slack translations ------------------------------------------------
  const auto criticality = sta::criticality_from_slack(timing, 2.0, 50.0);
  pilfill::BudgetedConfig budgets;
  budgets.net_cap_budget_ff = pilfill::budgets_from_per_net_delay_ps(
      pieces, static_cast<int>(chip.num_nets()),
      sta::delay_allowance_from_slack(timing, 0.5));

  // Worst-case per-net post-fill slack bound: slack - dC * Rmax.
  std::vector<double> rmax(chip.num_nets(), 0.0);
  for (const auto& p : pieces)
    rmax[p.net] = std::max(rmax[p.net],
                           p.upstream_res + p.res_per_um * p.length());
  auto wns_bound = [&](const std::vector<double>& net_dc) {
    double wns = 1e30;
    for (std::size_t n = 0; n < net_dc.size(); ++n)
      wns = std::min(wns,
                     timing.nets[n].slack_ps - net_dc[n] * rmax[n] * 1e-3);
    return wns;
  };

  // --- 3a/3b: per-tile ILP-II, plain vs criticality-weighted ---------------
  const pilfill::FlowResult plain = session.solve({pilfill::Method::kIlp2});
  pilfill::FlowConfig crit_flow = flow;
  crit_flow.required_per_tile = plain.target.features_per_tile;
  crit_flow.net_criticality = criticality;
  const pilfill::FlowResult crit =
      pilfill::run_pil_fill_flow(chip, crit_flow, {pilfill::Method::kIlp2});

  // Read out the per-net coupling each placement actually causes.
  const int nn = static_cast<int>(chip.num_nets());
  const auto plain_dc = session.evaluator().per_net_coupling_ff(
      plain.methods[0].placement.features, nn);
  const auto crit_dc = session.evaluator().per_net_coupling_ff(
      crit.methods[0].placement.features, nn);

  // --- 3c: slack-budgeted, on the plain run's fill requirements -------------
  const pilfill::BudgetedFlowResult budgeted =
      pilfill::run_budgeted_pil_fill_flow(session, budgets);

  // --- 4. report -------------------------------------------------------------
  Table table({"flavor", "placed", "shortfall", "wtau (ps)",
               "post-fill WNS bound (ps)"});
  table.add_row({"weighted ILP-II", std::to_string(plain.methods[0].placed),
                 std::to_string(plain.methods[0].shortfall),
                 format_double(plain.methods[0].impact.weighted_delay_ps, 4),
                 format_double(wns_bound(plain_dc), 3)});
  table.add_row({"criticality-weighted", std::to_string(crit.methods[0].placed),
                 std::to_string(crit.methods[0].shortfall),
                 format_double(crit.methods[0].impact.weighted_delay_ps, 4),
                 format_double(wns_bound(crit_dc), 3)});
  table.add_row({"slack-budgeted", std::to_string(budgeted.allocation.placed),
                 std::to_string(budgeted.allocation.shortfall),
                 format_double(budgeted.impact.weighted_delay_ps, 4),
                 format_double(
                     wns_bound(budgeted.allocation.net_cap_used_ff), 3)});
  table.print(std::cout);

  std::cout << "\nThe slack-budgeted flavor provably never degrades WNS "
               "(critical nets get zero\nbudget); the criticality ramp gets "
               "most of that protection without hard guarantees.\n";
  return 0;
}

/// \file bench_mvdc_tradeoff.cpp
/// The density-vs-delay tradeoff frontier of the MVDC formulation (the
/// paper's Section 7 alternative: bound the timing impact, minimize the
/// density variation). Sweeps the delay budget on T2 and prints the series:
/// budget -> achieved minimum window density / variation / features placed.
/// The knee of this curve is where timing-aware fill earns its keep: most
/// of the density improvement is available at a small fraction of the
/// unconstrained delay cost.
///
/// Exits 1 unless (a) the delay spent stays within the budget on every row,
/// (b) neither the features placed nor the minimum density ever fall as the
/// budget grows and (c) the budget does not stop the unconstrained run.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;

  const layout::Layout chip = layout::make_testcase_t2();
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  // One prep for the sweep. MVDC targets and builds its own tile pools, so
  // all-zero requirements let prep skip targeting and the instance build.
  flow.required_per_tile.assign(
      grid::Dissection(chip.die(), flow.window_um, flow.r).num_tiles(), 0);
  const pilfill::FillSession session(chip, flow);

  // The unconstrained run bounds the sweep.
  const pilfill::MvdcResult full =
      pilfill::run_mvdc_fill(session, pilfill::MvdcConfig{});

  std::cout << "=== MVDC: density-vs-delay tradeoff (T2, W=32, r=4) ===\n"
            << "unconstrained: " << full.placed << " features, "
            << format_double(full.delay_spent_ps, 4) << " ps spent, min "
            << "density " << format_double(full.density_after.min_density, 4)
            << "\n\n";

  Table table({"budget (ps)", "placed", "delay spent (ps)", "exact tau (ps)",
               "min density", "variation", "budget hit"});
  const double max_spend = full.delay_spent_ps;
  bool within_budget = true;
  bool monotone = true;
  long long prev_placed = 0;
  double prev_min = 0.0;
  for (const double frac : {0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
    pilfill::MvdcConfig cfg;
    cfg.delay_budget_ps = frac * max_spend;
    const pilfill::MvdcResult r = pilfill::run_mvdc_fill(session, cfg);
    within_budget =
        within_budget && r.delay_spent_ps <= cfg.delay_budget_ps + 1e-12;
    monotone = monotone && r.placed >= prev_placed &&
               r.density_after.min_density >= prev_min;
    prev_placed = r.placed;
    prev_min = r.density_after.min_density;
    table.add_row({format_double(cfg.delay_budget_ps, 5),
                   std::to_string(r.placed),
                   format_double(r.delay_spent_ps, 5),
                   format_double(r.impact.delay_ps, 5),
                   format_double(r.density_after.min_density, 4),
                   format_double(r.density_after.variation(), 4),
                   r.budget_exhausted ? "yes" : "no"});
  }
  table.print(std::cout);
  return within_budget && monotone && !full.budget_exhausted ? 0 : 1;
}

/// \file bench_anneal.cpp
/// Global annealing vs the per-tile methods across dissection sizes.
///
/// The paper observes (Section 6) that PIL-Fill's advantage shrinks as the
/// dissection gets finer: the density targeter hands small tiles quotas
/// with no regard to their slack cost, and per-tile solvers cannot move
/// fill between tiles. The window-constrained annealer can -- it preserves
/// the window-density band (the actual manufacturing contract) while
/// optimizing the true whole-gap objective. The table shows it recovering
/// a large fraction of the fine-dissection loss.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  const layout::Layout chip = layout::make_testcase_t2();
  Table table({"W/r", "Normal tau", "ILP-II tau", "Anneal tau",
               "vs ILP-II", "moves acc/try", "cpu (s)"});

  std::cout << "=== Window-constrained annealing (extension) on T2 ===\n\n";

  for (const double window : {32.0, 20.0}) {
    for (const int r : {2, 4, 8}) {
      pilfill::FlowConfig flow;
      flow.window_um = window;
      flow.r = r;
      const pilfill::FlowResult base = pilfill::run_pil_fill_flow(
          chip, flow, {Method::kNormal, Method::kIlp2});
      const pilfill::AnnealFlowResult ann =
          pilfill::run_annealed_pil_fill_flow(chip, flow);
      const double ilp2 = base.methods[1].impact.delay_ps;
      table.add_row(
          {format_double(window, 0) + "/" + std::to_string(r),
           format_double(base.methods[0].impact.delay_ps, 4),
           format_double(ilp2, 4), format_double(ann.impact.delay_ps, 4),
           format_double(100 * (1 - ann.impact.delay_ps / ilp2), 1) + "%",
           std::to_string(ann.moves_accepted) + "/" +
               std::to_string(ann.moves_tried),
           format_double(ann.solve_seconds, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nCoarse dissections are already near-optimal per tile. The "
               "reclaimable loss\nappears where tiles are small relative to "
               "the window (large r): moving fill\nbetween tiles inside the "
               "window band recovers it (W=32/8, W=20/4 and W=20/8\nhere).\n";
  return 0;
}

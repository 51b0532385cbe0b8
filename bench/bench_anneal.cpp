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
///
/// Exits 1 unless (a) on every row the annealed tau is at most 1.001 x the
/// ILP-II tau and (b) at 32/8, 20/4 and 20/8 it is at least 20% below it.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  const layout::Layout chip = layout::make_testcase_t2();
  Table table({"W/r", "Normal tau", "ILP-II tau", "Anneal tau",
               "vs ILP-II", "moves acc/try", "cpu (s)"});

  std::cout << "=== Window-constrained annealing (extension) on T2 ===\n\n";

  bool never_worse = true;
  bool recovers = true;

  for (const double window : {32.0, 20.0}) {
    for (const int r : {2, 4, 8}) {
      pilfill::FlowConfig flow;
      flow.window_um = window;
      flow.r = r;
      pilfill::FillSession session(chip, flow);
      const pilfill::FlowResult base =
          session.solve({Method::kNormal, Method::kIlp2});
      const pilfill::AnnealFlowResult ann =
          pilfill::run_annealed_pil_fill_flow(session);
      const double ilp2 = base.methods[1].impact.delay_ps;
      const double tau = ann.impact.delay_ps;
      never_worse = never_worse && tau <= 1.001 * ilp2;
      if ((window == 32.0 && r == 8) || (window == 20.0 && r >= 4))
        recovers = recovers && tau <= 0.8 * ilp2;
      table.add_row(
          {format_double(window, 0) + "/" + std::to_string(r),
           format_double(base.methods[0].impact.delay_ps, 4),
           format_double(ilp2, 4), format_double(tau, 4),
           format_double(100 * (1 - tau / ilp2), 1) + "%",
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
  return never_worse && recovers ? 0 : 1;
}

/// \file bench_erosion.cpp
/// Ablation H: the NET timing effect of fill.
///
/// Fill hurts timing through coupling (the paper's subject) and helps it by
/// preventing CMP over-polish of sparse regions (thinned wires = higher
/// resistance). This table puts both on one axis for T2: erosion delay of
/// the unfilled layout, erosion delay after fill, coupling delay added by
/// each method, and the net change. With a timing-aware method the net
/// effect of fill is strongly NEGATIVE (fill speeds the design up); random
/// fill burns most of the erosion win on coupling.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  const layout::Layout chip = layout::make_testcase_t2();
  const auto trees = rctree::build_all_trees(chip);
  const grid::Dissection dis(chip.die(), 32.0, 4);
  grid::DensityMap wires(dis);
  wires.add_layer_metal(chip, 0);

  cmp::CmpModelConfig cmp_cfg;
  cmp_cfg.planarization_length_um = 24.0;
  const cmp::ErosionModelConfig erosion_cfg;

  const cmp::ErosionReport unfilled = cmp::erosion_delay_report(
      trees, chip, cmp::simulate_cmp(wires, cmp_cfg), erosion_cfg);

  std::cout << "=== Ablation H: net timing effect of fill "
               "(coupling cost vs erosion win) ===\n\n"
            << "unfilled erosion delay (sum over nets): "
            << format_double(unfilled.total_delay_increase_ps, 4) << " ps\n\n";

  Table table({"density target", "placement", "erosion delay (ps)",
               "erosion win (ps)", "coupling cost (ps)", "net effect (ps)"});
  for (const double target : {-1.0, 0.30}) {
    pilfill::FlowConfig flow;
    flow.window_um = 32;
    flow.r = 4;
    flow.target.lower_target = target;  // -1 = the usual min-var auto target
    const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
        chip, flow, {Method::kNormal, Method::kIlp2});
    for (const auto& mr : res.methods) {
      grid::DensityMap filled = wires;
      for (const auto& f : mr.placement.features) filled.add_rect(f);
      const cmp::ErosionReport er = cmp::erosion_delay_report(
          trees, chip, cmp::simulate_cmp(filled, cmp_cfg), erosion_cfg);
      const double win =
          unfilled.total_delay_increase_ps - er.total_delay_increase_ps;
      const double coupling = mr.impact.exact_sink_delay_ps;
      table.add_row({target < 0 ? "auto (0.19)" : format_double(target, 2),
                     to_string(mr.method),
                     format_double(er.total_delay_increase_ps, 4),
                     format_double(win, 4), format_double(coupling, 4),
                     format_double(coupling - win, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nOn this testbed the coupling cost outweighs the erosion "
               "win at both targets --\nfill is bought for "
               "manufacturability, not speed -- but the *margin* is what\n"
               "timing-awareness controls: ILP-II's net cost stays several "
               "times below Normal's\nwhile banking the same erosion "
               "improvement.\n";
  return 0;
}

/// \file bench_cmp_ablation.cpp
/// Ablation F: the physical payoff. Post-CMP residual thickness (density
/// model, Gaussian pad kernel) for the unfilled layout and for every fill
/// method, next to each method's delay cost. All methods place identical
/// per-tile counts, so they buy the SAME planarity -- the entire difference
/// between them is the delay column. This is the cleanest statement of the
/// paper's thesis: timing-awareness is free manufacturability-wise.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  const layout::Layout chip = layout::make_testcase_t2();
  const grid::Dissection dis(chip.die(), 32.0, 4);
  grid::DensityMap wires(dis);
  wires.add_layer_metal(chip, 0);

  cmp::CmpModelConfig cmp_cfg;
  cmp_cfg.planarization_length_um = 24.0;

  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
      chip, flow,
      {Method::kNormal, Method::kIlp1, Method::kIlp2, Method::kGreedy});

  std::cout << "=== Ablation F: post-CMP topography vs delay "
               "(T2, W=32, r=4, L=24 um) ===\n\n";
  Table table({"placement", "thickness range (nm)", "RMS (nm)",
               "delay cost (ps)"});

  const cmp::CmpResult unfilled = cmp::simulate_cmp(wires, cmp_cfg);
  table.add_row({"(no fill)",
                 format_double(unfilled.max_thickness_range_um * 1e3, 1),
                 format_double(unfilled.rms_thickness_um * 1e3, 1), "0"});

  for (const auto& mr : res.methods) {
    grid::DensityMap filled = wires;
    for (const auto& f : mr.placement.features) filled.add_rect(f);
    const cmp::CmpResult r = cmp::simulate_cmp(filled, cmp_cfg);
    table.add_row({to_string(mr.method),
                   format_double(r.max_thickness_range_um * 1e3, 1),
                   format_double(r.rms_thickness_um * 1e3, 1),
                   format_double(mr.impact.delay_ps, 4)});
  }
  table.print(std::cout);
  std::cout << "\nIdentical planarity across methods (same per-tile fill); "
               "only the delay differs.\n";
  return 0;
}

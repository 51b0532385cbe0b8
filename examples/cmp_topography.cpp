/// \file cmp_topography.cpp
/// Why fill exists, made visible: simulate post-CMP topography before and
/// after PIL-Fill and print the thickness maps. Fill flattens the wafer
/// (the manufacturability win) while ILP-II keeps the delay cost minimal
/// (the paper's contribution).
///
///   $ ./cmp_topography [planarization_length_um]

#include <iostream>

#include "pil/pil.hpp"

int main(int argc, char** argv) {
  using namespace pil;
  cmp::CmpModelConfig cmp_cfg;
  cmp_cfg.planarization_length_um =
      argc > 1 ? parse_double(argv[1], "planarization length") : 24.0;

  const layout::Layout chip = layout::make_testcase_t2();
  const grid::Dissection dis(chip.die(), 32.0, 4);
  grid::DensityMap before(dis);
  before.add_layer_metal(chip, 0);

  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(chip, flow, {pilfill::Method::kIlp2});
  grid::DensityMap after = before;
  for (const auto& f : res.methods[0].placement.features) after.add_rect(f);

  const cmp::CmpResult rb = cmp::simulate_cmp(before, cmp_cfg);
  const cmp::CmpResult ra = cmp::simulate_cmp(after, cmp_cfg);

  std::cout << "CMP model: planarization length "
            << cmp_cfg.planarization_length_um << " um, step height "
            << cmp_cfg.step_height_um << " um\n\n";
  std::cout << "post-CMP residual thickness BEFORE fill (range "
            << format_double(rb.max_thickness_range_um * 1e3, 1) << " nm, RMS "
            << format_double(rb.rms_thickness_um * 1e3, 1) << " nm):\n"
            << cmp::render_thickness_ascii(rb) << "\n";
  std::cout << "post-CMP residual thickness AFTER ILP-II fill (range "
            << format_double(ra.max_thickness_range_um * 1e3, 1) << " nm, RMS "
            << format_double(ra.rms_thickness_um * 1e3, 1) << " nm):\n"
            << cmp::render_thickness_ascii(ra) << "\n";
  std::cout << "delay cost of that flattening: +"
            << format_double(res.methods[0].impact.delay_ps, 4)
            << " ps (ILP-II; normal fill would cost ~4x more)\n";
  return 0;
}

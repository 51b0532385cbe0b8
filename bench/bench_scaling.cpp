/// \file bench_scaling.cpp
/// Runtime scaling of the whole flow with layout size: net count sweep at
/// fixed density recipe, reporting prep (geometry/targeting) and per-method
/// solve time. The paper's practicality claim for ILP-II rests on per-tile
/// decomposition keeping the ILP sizes constant as the layout grows -- so
/// solve time should scale roughly linearly in the number of (filled)
/// tiles, and this table verifies it. Also shows the multithreaded solve.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  std::cout << "=== Flow runtime scaling (W=32, r=4) ===\n\n";
  Table table({"die (um)", "nets", "segments", "fill", "prep (s)",
               "ILP-II (s)", "ILP-II 4t (s)", "Greedy (s)", "Normal (s)"});

  for (const auto& [die, nets] : std::vector<std::pair<double, int>>{
           {128, 150}, {256, 550}, {384, 1250}, {512, 2200}}) {
    layout::SyntheticLayoutConfig cfg;
    cfg.die_um = die;
    cfg.num_nets = nets;
    cfg.seed = 99;
    const layout::Layout chip = layout::generate_synthetic_layout(cfg);

    pilfill::FlowConfig flow;
    flow.window_um = 32;
    flow.r = 4;
    const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
        chip, flow, {Method::kNormal, Method::kIlp2, Method::kGreedy});

    pilfill::FlowConfig threaded = flow;
    threaded.threads = 4;
    const pilfill::FlowResult res4 =
        pilfill::run_pil_fill_flow(chip, threaded, {Method::kIlp2});

    auto cpu = [&](const pilfill::FlowResult& r, Method m) {
      for (const auto& mr : r.methods)
        if (mr.method == m) return mr.solve_seconds;
      throw Error("missing method");
    };
    table.add_row({format_double(die, 0), std::to_string(chip.num_nets()),
                   std::to_string(chip.num_segments()),
                   std::to_string(res.target.total_features),
                   format_double(res.prep_stages.total(), 3),
                   format_double(cpu(res, Method::kIlp2), 3),
                   format_double(cpu(res4, Method::kIlp2), 3),
                   format_double(cpu(res, Method::kGreedy), 4),
                   format_double(cpu(res, Method::kNormal), 4)});
  }
  table.print(std::cout);
  return 0;
}

/// \file timing_aware_fill_flow.cpp
/// The full experiment surface on the command line:
///
///   $ ./timing_aware_fill_flow [t1|t2|<file.pld>] [window_um] [r]
///                              [weighted|nonweighted] [I|II|III]
///
/// Runs Normal / ILP-I / ILP-II / Greedy / Convex on the chosen layout and
/// configuration, prints a comparison table, and writes the ILP-II filled
/// layout (wires + fill as zero-sink "FILL" nets) to filled_output.pld so
/// downstream tools -- or a human with a plotting script -- can inspect it.

#include <cctype>
#include <iostream>
#include <string>

#include "pil/pil.hpp"

int main(int argc, char** argv) try {
  using namespace pil;
  using pilfill::Method;

  const std::string which = argc > 1 ? argv[1] : "t2";
  layout::Layout chip = which == "t1"   ? layout::make_testcase_t1()
                        : which == "t2" ? layout::make_testcase_t2()
                                        : layout::read_pld_file(which);

  pilfill::FlowConfig config;
  config.window_um = argc > 2 ? parse_double(argv[2], "window") : 32.0;
  config.r = argc > 3 ? static_cast<int>(parse_int(argv[3], "r")) : 2;
  config.objective = (argc > 4 && std::string(argv[4]) == "weighted")
                         ? pilfill::Objective::kWeighted
                         : pilfill::Objective::kNonWeighted;
  if (argc > 5) {
    std::string mode = argv[5];  // I|II|III, any case
    for (char& c : mode) c = static_cast<char>(std::tolower(c));
    config.solver_mode = pilfill::slack_mode_from_wire(mode);
  }

  std::cout << "layout: " << chip.num_nets() << " nets / "
            << chip.num_segments() << " segments; window " << config.window_um
            << " um, r = " << config.r << ", "
            << to_string(config.solver_mode) << ", "
            << (config.objective == pilfill::Objective::kWeighted
                    ? "weighted"
                    : "non-weighted")
            << " objective\n\n";

  const std::vector<Method> methods = {Method::kNormal, Method::kIlp1,
                                       Method::kIlp2, Method::kGreedy,
                                       Method::kConvex};
  pilfill::FillSession session(chip, config);
  const pilfill::FlowResult res = session.solve(methods);

  std::cout << "density before: [" << res.density_before.min_density << ", "
            << res.density_before.max_density << "]; prescribed fill "
            << res.target.total_features << " features; slack capacity "
            << res.total_capacity << "\n\n";

  Table table({"method", "tau (ps)", "weighted tau (ps)", "exact sink (ps)",
               "placed", "shortfall", "cpu (s)"});
  for (const auto& m : res.methods) {
    table.add_row({to_string(m.method), format_double(m.impact.delay_ps, 4),
                   format_double(m.impact.weighted_delay_ps, 4),
                   format_double(m.impact.exact_sink_delay_ps, 4),
                   std::to_string(m.placed), std::to_string(m.shortfall),
                   format_double(m.solve_seconds, 4)});
  }
  table.print(std::cout);

  // Crosstalk proxy: fill-induced coupling relative to each net's total
  // capacitance (the intro's crosstalk concern, quantified per method).
  std::cout << "\nworst relative coupling increase (dC / C_net):\n";
  for (const auto& m : res.methods) {
    const auto dc = session.evaluator().per_net_coupling_ff(
        m.placement.features, static_cast<int>(chip.num_nets()));
    double worst = 0;
    for (std::size_t n = 0; n < dc.size(); ++n) {
      const double total = session.trees()[n].total_cap_ff();
      if (total > 0) worst = std::max(worst, dc[n] / total);
    }
    std::cout << "  " << to_string(m.method) << ": "
              << format_double(100 * worst, 3) << "%\n";
  }

  // Persist the ILP-II placement: fill features become zero-sink nets on
  // the same layer so the output remains a valid .pld layout.
  for (const auto& m : res.methods) {
    if (m.method != Method::kIlp2) continue;
    layout::Layout filled = chip;
    int count = 0;
    for (const auto& f : m.placement.features) {
      layout::Net net;
      net.name = "FILL" + std::to_string(count++);
      net.source = f.center();
      layout::NetId nid = filled.add_net(net);
      // A fill square drawn as one full-width segment whose drawn rect is
      // exactly the feature footprint.
      filled.add_segment(nid, 0, {f.xlo, f.center().y},
                         {f.xhi, f.center().y}, f.height());
    }
    layout::write_pld_file(filled, "filled_output.pld");
    layout::SvgOptions svg;
    svg.grid_um = config.window_um / config.r;  // tile grid
    layout::write_svg_file(chip, m.placement.features, "filled_output.svg",
                           svg);
    std::cout << "\nwrote ILP-II filled layout (" << m.placed
              << " fill features) to filled_output.pld + filled_output.svg\n";
  }
  return 0;
} catch (const pil::Error& e) {  // bad path or mode: say so, exit 1
  std::cerr << "timing_aware_fill_flow: " << e.what() << "\n";
  return 1;
}

/// \file density_uniformity.cpp
/// The density-control half of the flow in isolation: analyze window
/// densities over a fixed r-dissection, compute the per-tile fill
/// requirement with two engines (the min-variation LP, rounded down and
/// topped up, and the scalable Monte-Carlo targeter), and compare what
/// they achieve.
///
///   $ ./density_uniformity [r]
///
/// This is the Chen-Kahng-Robins-Zelikovsky "normal fill" density machinery
/// that every PIL-Fill method reuses (Figure 8, step 2).

#include <iostream>
#include <string>

#include "pil/pil.hpp"

int main(int argc, char** argv) {
  using namespace pil;
  const int r = argc > 1 ? static_cast<int>(parse_int(argv[1], "r")) : 4;

  const layout::Layout chip = layout::make_testcase_t2();
  const grid::Dissection dis(chip.die(), 32.0, r);
  std::cout << "dissection: window 32 um, r = " << r << " -> "
            << dis.tiles_x() << "x" << dis.tiles_y() << " tiles of "
            << dis.tile_um() << " um, " << dis.num_windows() << " windows\n";

  grid::DensityMap wires(dis);
  wires.add_layer_metal(chip, 0);
  const grid::DensityStats before = wires.stats();
  std::cout << "window density before fill: min " << before.min_density
            << ", max " << before.max_density << ", variation "
            << before.variation() << "\n\n";

  // Fill capacity per tile comes from the slack-site inventory.
  const auto trees = rctree::build_all_trees(chip);
  const auto pieces = fill::flatten_pieces(trees);
  const fill::FillRules rules;
  const auto slack = fill::extract_slack_columns(chip, dis, pieces, 0, rules,
                                                 fill::SlackMode::kIII);
  std::vector<int> capacity(dis.num_tiles());
  for (int t = 0; t < dis.num_tiles(); ++t)
    capacity[t] = slack.tile_capacity(t);

  Table table({"engine", "features", "min density", "max density",
               "variation"});
  Stopwatch sw;
  const auto mc = density::compute_fill_amounts_mc(wires, capacity, rules);
  const double mc_s = sw.seconds();
  sw.reset();
  const auto lp = density::compute_fill_amounts_lp(wires, capacity, rules);
  const double lp_s = sw.seconds();

  auto row = [&](const char* name, const density::FillTargetResult& res) {
    table.add_row({name, std::to_string(res.total_features),
                   format_double(res.after.min_density, 4),
                   format_double(res.after.max_density, 4),
                   format_double(res.after.variation(), 4)});
  };
  row("Monte-Carlo", mc);
  row("min-var LP", lp);
  table.print(std::cout);
  std::cout << "\nMC " << format_double(mc_s * 1e3, 1) << " ms, LP "
            << format_double(lp_s * 1e3, 1)
            << " ms (LP starts from the exact optimum; MC scales to fine "
               "dissections)\n";

  // Smoothness (density *steps* between nearby windows, the companion
  // CMP criterion from Chen et al. ISPD'02).
  grid::DensityMap filled = wires;
  for (int t = 0; t < dis.num_tiles(); ++t)
    filled.add_area(dis.tile_unflat(t),
                    mc.features_per_tile[t] * rules.feature_area());
  const grid::SmoothnessReport sb = grid::analyze_smoothness(wires);
  const grid::SmoothnessReport sa = grid::analyze_smoothness(filled);
  std::cout << "\nsmoothness (type-I / type-II / mean step):\n"
            << "  before fill: " << format_double(sb.type1, 4) << " / "
            << format_double(sb.type2, 4) << " / "
            << format_double(sb.mean_abs_step, 5) << "\n"
            << "  after MC   : " << format_double(sa.type1, 4) << " / "
            << format_double(sa.type2, 4) << " / "
            << format_double(sa.mean_abs_step, 5) << "\n";
  return 0;
}

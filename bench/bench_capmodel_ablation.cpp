/// \file bench_capmodel_ablation.cpp
/// Ablation B: linear (Eq. 6, used by ILP-I) vs exact lookup-table (Eq. 5,
/// used by ILP-II) capacitance models.
///
/// Prints the relative underestimation of the linear model as a function of
/// the fill fraction m*w/d -- the quantity behind the paper's finding that
/// "the linear approximation used in the ILP-I method is apparently
/// unreasonable". Also reports, on T2, how often ILP-I's ranking of column
/// pairs disagrees with the exact model.

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;

  const cap::CouplingModel model(3.9, 0.5);
  const double w = 0.5;

  std::cout << "=== Ablation B: capacitance model error ===\n\n";
  Table sweep({"d (um)", "m", "fill fraction m*w/d", "exact dC (fF)",
               "linear dC (fF)", "linear underestimates by"});
  for (const double d : {1.5, 2.5, 3.5, 5.5, 9.5}) {
    const int cap = static_cast<int>((d - 2 * 0.5) / w);  // buffered capacity
    for (int m = 1; m <= cap; ++m) {
      const double exact = model.column_delta_cap_ff(m, w, d);
      const double lin = model.column_delta_cap_linear_ff(m, w, d);
      sweep.add_row({format_double(d, 1), std::to_string(m),
                     format_double(m * w / d, 2),
                     format_double(exact * 1e3, 4) + "e-3",
                     format_double(lin * 1e3, 4) + "e-3",
                     format_double(100 * (1 - lin / exact), 1) + "%"});
    }
  }
  sweep.print(std::cout);

  // Ranking disagreement on a real layout: for pairs of two-sided columns,
  // does the linear model order full-capacity costs the same way as the
  // exact model? Disagreements are where ILP-I goes wrong.
  const layout::Layout chip = layout::make_testcase_t2();
  const grid::Dissection dis(chip.die(), 32.0, 2);
  const auto trees = rctree::build_all_trees(chip);
  const auto pieces = fill::flatten_pieces(trees);
  const fill::FillRules rules;
  const auto slack = fill::extract_slack_columns(chip, dis, pieces, 0, rules,
                                                 fill::SlackMode::kIII);

  struct Cost {
    double exact, linear;
  };
  std::vector<Cost> costs;
  for (const auto& col : slack.columns()) {
    if (!col.two_sided() || col.capacity == 0) continue;
    const auto& below = pieces[col.below_piece];
    const auto& above = pieces[col.above_piece];
    const double res =
        slack.line_res_at(col, below) + slack.line_res_at(col, above);
    costs.push_back(
        {model.column_delta_cap_ff(col.capacity, w, col.gap_um) * res,
         model.column_delta_cap_linear_ff(col.capacity, w, col.gap_um) * res});
  }
  long long pairs = 0, disagree = 0;
  for (std::size_t i = 0; i < costs.size(); i += 3) {
    for (std::size_t j = i + 3; j < costs.size(); j += 3) {
      ++pairs;
      const bool e = costs[i].exact < costs[j].exact;
      const bool l = costs[i].linear < costs[j].linear;
      disagree += (e != l);
    }
  }
  std::cout << "\nColumn-pair ranking disagreement on T2 (full columns): "
            << disagree << " / " << pairs << " pairs ("
            << format_double(100.0 * disagree / std::max(pairs, 1LL), 2)
            << "%)\n";
  return 0;
}

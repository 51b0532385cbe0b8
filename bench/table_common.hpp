#pragma once
/// \file table_common.hpp
/// Shared harness for the Table 1 / Table 2 reproductions: run the 12 paper
/// configurations ({T1,T2} x W in {32,20} x r in {2,4,8}) with the four
/// methods and print a paper-shaped table plus the reduction-vs-normal
/// percentages, then the same table as CSV.

#include <iostream>
#include <string>
#include <vector>

#include "pil/pil.hpp"

namespace pil::bench {

struct ConfigRow {
  const char* testcase;
  double window_um;
  int r;
};

inline const std::vector<ConfigRow>& paper_configs() {
  static const std::vector<ConfigRow> rows = {
      {"T1", 32, 2}, {"T1", 32, 4}, {"T1", 32, 8},
      {"T1", 20, 2}, {"T1", 20, 4}, {"T1", 20, 8},
      {"T2", 32, 2}, {"T2", 32, 4}, {"T2", 32, 8},
      {"T2", 20, 2}, {"T2", 20, 4}, {"T2", 20, 8},
  };
  return rows;
}

/// Run the full table for one objective. `metric` picks which impact number
/// is reported (non-weighted for Table 1, weighted for Table 2).
inline void run_table(const char* title, pilfill::Objective objective,
                      double (*metric)(const pilfill::DelayImpact&)) {
  using pilfill::Method;
  const std::vector<Method> methods = {Method::kNormal, Method::kIlp1,
                                       Method::kIlp2, Method::kGreedy};

  const layout::Layout t1 = layout::make_testcase_t1();
  const layout::Layout t2 = layout::make_testcase_t2();

  Table table({"T/W/r", "Normal tau", "ILP-I tau", "ILP-I cpu", "ILP-II tau",
               "ILP-II cpu", "Greedy tau", "Greedy cpu", "ILP-II red%"});

  std::cout << title << "\n"
            << "(tau = total fill-induced delay increase, ps; cpu = per-tile "
               "solve seconds;\n red% = ILP-II reduction vs Normal)\n\n";

  for (const ConfigRow& cfg : paper_configs()) {
    const layout::Layout& chip =
        std::string(cfg.testcase) == "T1" ? t1 : t2;
    pilfill::FlowConfig flow;
    flow.window_um = cfg.window_um;
    flow.r = cfg.r;
    flow.objective = objective;

    const pilfill::FlowResult res =
        pilfill::run_pil_fill_flow(chip, flow, methods);

    auto tau = [&](Method m) {
      for (const auto& mr : res.methods)
        if (mr.method == m) return metric(mr.impact);
      throw Error("method missing");
    };
    auto cpu = [&](Method m) {
      for (const auto& mr : res.methods)
        if (mr.method == m) return mr.solve_seconds;
      throw Error("method missing");
    };

    const double normal = tau(Method::kNormal);
    const double red =
        normal > 0 ? 100.0 * (1.0 - tau(Method::kIlp2) / normal) : 0.0;
    table.add_row({std::string(cfg.testcase) + "/" +
                       format_double(cfg.window_um, 0) + "/" +
                       std::to_string(cfg.r),
                   format_double(normal, 3), format_double(tau(Method::kIlp1), 3),
                   format_double(cpu(Method::kIlp1), 3),
                   format_double(tau(Method::kIlp2), 3),
                   format_double(cpu(Method::kIlp2), 3),
                   format_double(tau(Method::kGreedy), 3),
                   format_double(cpu(Method::kGreedy), 3),
                   format_double(red, 1)});
  }
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
}

/// Shared main() body for the table benches.
inline int run_table_main(const char* title, pilfill::Objective objective,
                          double (*metric)(const pilfill::DelayImpact&)) {
  try {
    run_table(title, objective, metric);
  } catch (const Error& e) {
    std::cerr << "bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace pil::bench

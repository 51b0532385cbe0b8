/// \file bench_slackcolumn_ablation.cpp
/// Ablation A: the three slack-column definitions of Section 5.1.
///
/// For T2 at W = 32 and r in {2,4,8}, runs ILP-II with the solver seeing
/// SlackColumn-I, -II, or -III and reports: the capacity each definition
/// exposes, the fill shortfall (definition I misses capacity, exactly the
/// drawback the paper names), and the true delay impact of the resulting
/// placement under the global evaluator (definition II places everything
/// but prices edge-bounded columns as free, so it scores worse than III).

#include <iostream>

#include "pil/pil.hpp"

int main() {
  using namespace pil;
  using pilfill::Method;

  const layout::Layout chip = layout::make_testcase_t2();
  Table table({"W/r", "mode", "capacity", "required", "placed", "shortfall",
               "tau (ps)", "wtau (ps)"});

  std::cout << "=== Ablation A: slack-column definitions (Section 5.1) ===\n"
            << "ILP-II on T2; evaluation always uses the global gap "
               "structure.\n\n";

  for (const int r : {2, 4, 8}) {
    for (const fill::SlackMode mode :
         {fill::SlackMode::kI, fill::SlackMode::kII, fill::SlackMode::kIII}) {
      pilfill::FlowConfig config;
      config.window_um = 32;
      config.r = r;
      config.solver_mode = mode;
      pilfill::FillSession session(chip, config);
      const pilfill::FlowResult res = session.solve({Method::kIlp2});
      const auto& mr = res.methods[0];

      // Capacity as this definition sees it: the solver's columns.
      table.add_row({"32/" + std::to_string(r), to_string(mode),
                     std::to_string(session.solver_slack().total_capacity()),
                     std::to_string(res.target.total_features),
                     std::to_string(mr.placed), std::to_string(mr.shortfall),
                     format_double(mr.impact.delay_ps, 3),
                     format_double(mr.impact.weighted_delay_ps, 3)});
    }
  }
  table.print(std::cout);
  return 0;
}

#pragma once
/// \file evaluate.hpp
/// Solver-independent delay-impact evaluation.
///
/// Every method's placement -- whatever slack-column definition or
/// capacitance model it used internally -- is scored by one evaluator built
/// on the *global* (SlackColumn-III) gap structure and the *exact*
/// lookup-table capacitance model. Placed features are binned into global
/// columns; a column holding m features total (possibly contributed by
/// several tiles) adds dC(m) = (f(m,d) - c(d)) * w of coupling, charged to
/// its two facing lines at the column position. This is what surfaces both
/// ILP-I's linear-model optimism and the per-tile fragmentation loss at
/// fine dissections, exactly as the paper reports.

#include <vector>

#include "pil/cap/coupling.hpp"
#include "pil/fill/slack.hpp"
#include "pil/pilfill/instance.hpp"

namespace pil::pilfill {

struct DelayImpact {
  /// Sum over active lines of the line delay increase (Table 1 metric), ps.
  double delay_ps = 0.0;
  /// Downstream-sink weighted sum (Table 2 metric), ps.
  double weighted_delay_ps = 0.0;
  /// Exact increase in the sum of all sink Elmore delays (extension), ps.
  double exact_sink_delay_ps = 0.0;
  long long features = 0;
  /// Features that landed in no known gap (should be 0; placements from
  /// foreign site grids may produce them).
  long long unmapped = 0;
};

struct EvaluatorOptions {
  cap::FillStyle style = cap::FillStyle::kFloating;
  double switch_factor = 1.0;  ///< Miller factor on coupling increments
};

class DelayImpactEvaluator {
 public:
  /// `global` must be a SlackColumn-III extraction; `pieces` the flattened
  /// piece array it refers to. The evaluator keeps pointers to both and
  /// reads them on every call, so a caller that assigns either in place
  /// (FillSession::apply_edit does) keeps the evaluator current.
  DelayImpactEvaluator(const fill::SlackColumns& global,
                       const std::vector<rctree::WirePiece>& pieces,
                       const cap::CouplingModel& model,
                       const fill::FillRules& rules,
                       const EvaluatorOptions& options = {});

  /// Score a placement given as feature rectangles (universal path). Each
  /// call builds a site-column -> span lookup over every global column to
  /// bin the rectangles; hot paths that already hold per-column counts
  /// (FillSession::solve) call evaluate_counts instead.
  DelayImpact evaluate_rects(const std::vector<geom::Rect>& features) const;

  /// Score a placement given as per-global-column feature counts (fast
  /// path; index space = SlackColumns::columns()).
  DelayImpact evaluate_counts(const std::vector<int>& counts) const;

  /// Coupling capacitance (fF) charged to each net by a placement, indexed
  /// by NetId (vector sized `num_nets`). A column between two pieces of the
  /// same net charges that net twice, consistent with the budgeted
  /// allocator's accounting. Bins the rectangles as evaluate_rects does.
  std::vector<double> per_net_coupling_ff(
      const std::vector<geom::Rect>& features, int num_nets) const;

 private:
  const fill::SlackColumns* global_;
  const std::vector<rctree::WirePiece>* pieces_;
  cap::CouplingModel model_;
  fill::FillRules rules_;
  EvaluatorOptions options_;
};

}  // namespace pil::pilfill

#include "pil/pilfill/evaluate.hpp"

namespace pil::pilfill {

DelayImpactEvaluator::DelayImpactEvaluator(
    const fill::SlackColumns& global,
    const std::vector<rctree::WirePiece>& pieces,
    const cap::CouplingModel& model, const fill::FillRules& rules,
    const EvaluatorOptions& options)
    : global_(&global),
      pieces_(&pieces),
      model_(model),
      rules_(rules),
      options_(options) {
  PIL_REQUIRE(options.switch_factor > 0, "switch factor must be positive");
}

double DelayImpactEvaluator::coupling_increment_ff(int m,
                                                   double gap_um) const {
  return options_.switch_factor *
         (options_.style == cap::FillStyle::kFloating
              ? model_.column_delta_cap_ff(m, rules_.feature_um, gap_um)
              : model_.grounded_column_delta_line_cap_ff(
                    m, rules_.feature_um, rules_.buffer_um, gap_um));
}

DelayImpact DelayImpactEvaluator::evaluate_rects(
    const std::vector<geom::Rect>& features) const {
  long long unmapped = 0;
  DelayImpact impact =
      evaluate_counts(global_->count_features(features, rules_, unmapped));
  impact.unmapped = unmapped;
  impact.features = static_cast<long long>(features.size());
  return impact;
}

std::vector<double> DelayImpactEvaluator::per_net_coupling_ff(
    const std::vector<geom::Rect>& features, int num_nets) const {
  long long unmapped = 0;
  const std::vector<int> counts =
      global_->count_features(features, rules_, unmapped);
  std::vector<double> used(num_nets, 0.0);
  const auto& cols = global_->columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const int m = counts[i];
    if (m == 0 || !cols[i].two_sided()) continue;
    const double dcap = coupling_increment_ff(m, cols[i].gap_um);
    const layout::NetId below = (*pieces_)[cols[i].below_piece].net;
    const layout::NetId above = (*pieces_)[cols[i].above_piece].net;
    PIL_REQUIRE(below >= 0 && below < num_nets && above >= 0 &&
                    above < num_nets,
                "piece net id out of range");
    used[below] += dcap;
    used[above] += dcap;
  }
  return used;
}

DelayImpact DelayImpactEvaluator::evaluate_counts(
    const std::vector<int>& counts) const {
  PIL_REQUIRE(counts.size() == global_->columns().size(),
              "per-column count vector size mismatch");
  DelayImpact impact;
  const auto& cols = global_->columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const int m = counts[i];
    if (m == 0) continue;
    const auto& col = cols[i];
    PIL_REQUIRE(m >= 0 && m <= col.capacity, "column count out of range");
    impact.features += m;
    if (!col.two_sided()) continue;  // no second plate: no coupling change
    const double dcap = coupling_increment_ff(m, col.gap_um);
    const rctree::WirePiece& below = (*pieces_)[col.below_piece];
    const rctree::WirePiece& above = (*pieces_)[col.above_piece];
    const double rb = global_->line_res_at(col, below);
    const double ra = global_->line_res_at(col, above);
    // ohm * fF = 1e-15 s = 1e-3 ps.
    impact.delay_ps += dcap * (rb + ra) * 1e-3;
    impact.weighted_delay_ps +=
        dcap *
        (below.downstream_sinks * rb + above.downstream_sinks * ra) * 1e-3;
    impact.exact_sink_delay_ps +=
        dcap *
        (below.downstream_sinks * rb + below.offpath_res_sum +
         above.downstream_sinks * ra + above.offpath_res_sum) *
        1e-3;
  }
  return impact;
}

}  // namespace pil::pilfill

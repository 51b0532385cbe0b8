#include "pil/pilfill/evaluate.hpp"

#include <algorithm>
#include <cmath>

namespace pil::pilfill {

namespace {

/// Per-global-column counts of `features`. A feature belongs to the column
/// of its site column (recovered from its x center) whose span holds its y
/// center; features in no column are counted in `unmapped`. The lookup is
/// built here, from the columns as they are now.
std::vector<int> bin_features(const fill::SlackColumns& global, double pitch,
                              const std::vector<geom::Rect>& features,
                              long long& unmapped) {
  const auto& cols = global.columns();
  // col_index -> list of (span_lo, global column id), sorted by span_lo.
  int max_colindex = -1;
  for (const auto& col : cols)
    max_colindex = std::max(max_colindex, col.col_index);
  std::vector<std::vector<std::pair<double, int>>> spans_of(max_colindex + 1);
  for (std::size_t i = 0; i < cols.size(); ++i)
    spans_of[cols[i].col_index].emplace_back(cols[i].span_lo,
                                             static_cast<int>(i));
  for (auto& v : spans_of) std::sort(v.begin(), v.end());
  // Columns are at origin + c*pitch: the lowest one recovers the grid.
  const fill::SlackColumn* c0 = nullptr;
  for (const auto& v : spans_of)
    if (!v.empty()) {
      c0 = &cols[v.front().second];
      break;
    }

  auto find = [&](const geom::Rect& feature_real) {
    if (c0 == nullptr) return -1;
    // Column coordinates live in the scan frame (transposed for vertical
    // layers); move the query there first.
    const geom::Rect feature =
        global.transposed()
            ? geom::Rect{feature_real.ylo, feature_real.xlo, feature_real.yhi,
                         feature_real.xhi}
            : feature_real;
    // Recover the site-column index from the feature's x center. All
    // shipped placements use the shared global x grid, so the nearest
    // column is exact.
    const double cx = (feature.xlo + feature.xhi) / 2;
    const int guess =
        c0->col_index + static_cast<int>(std::lround((cx - c0->x_center) /
                                                     pitch));
    if (guess < 0 || guess >= static_cast<int>(spans_of.size())) return -1;
    const auto& spans = spans_of[guess];
    const double cy = (feature.ylo + feature.yhi) / 2;
    // Last span starting at or below cy.
    auto it = std::upper_bound(
        spans.begin(), spans.end(), std::make_pair(cy + geom::kEps, 1 << 30));
    if (it == spans.begin()) return -1;
    --it;
    const auto& col = cols[it->second];
    if (cy > col.span_hi + geom::kEps) return -1;
    if (std::fabs(col.x_center - cx) > pitch / 2) return -1;
    return it->second;
  };

  std::vector<int> counts(cols.size(), 0);
  for (const auto& f : features) {
    const int c = find(f);
    if (c < 0)
      ++unmapped;
    else
      counts[c] += 1;
  }
  return counts;
}

}  // namespace

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

DelayImpact DelayImpactEvaluator::evaluate_rects(
    const std::vector<geom::Rect>& features) const {
  long long unmapped = 0;
  DelayImpact impact = evaluate_counts(
      bin_features(*global_, rules_.pitch(), features, unmapped));
  impact.unmapped = unmapped;
  impact.features = static_cast<long long>(features.size());
  return impact;
}

std::vector<double> DelayImpactEvaluator::per_net_coupling_ff(
    const std::vector<geom::Rect>& features, int num_nets) const {
  long long unmapped = 0;
  const std::vector<int> counts =
      bin_features(*global_, rules_.pitch(), features, unmapped);
  std::vector<double> used(num_nets, 0.0);
  const auto& cols = global_->columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const int m = counts[i];
    if (m == 0 || !cols[i].two_sided()) continue;
    const double dcap =
        options_.switch_factor *
        (options_.style == cap::FillStyle::kFloating
             ? model_.column_delta_cap_ff(m, rules_.feature_um,
                                          cols[i].gap_um)
             : model_.grounded_column_delta_line_cap_ff(
                   m, rules_.feature_um, rules_.buffer_um, cols[i].gap_um));
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
    const double dcap =
        options_.switch_factor *
        (options_.style == cap::FillStyle::kFloating
             ? model_.column_delta_cap_ff(m, rules_.feature_um, col.gap_um)
             : model_.grounded_column_delta_line_cap_ff(
                   m, rules_.feature_um, rules_.buffer_um, col.gap_um));
    const rctree::WirePiece& below = (*pieces_)[col.below_piece];
    const rctree::WirePiece& above = (*pieces_)[col.above_piece];
    const double rb = piece_res_at_x(below, col.x_center);
    const double ra = piece_res_at_x(above, col.x_center);
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

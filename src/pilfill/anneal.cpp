#include "pil/pilfill/anneal.hpp"

#include <algorithm>
#include <cmath>

#include "flow_common.hpp"
#include "pil/obs/stage.hpp"
#include "pil/util/log.hpp"

namespace pil::pilfill {

namespace {

/// Incremental global-objective state. Per-part counts are the decision
/// variables; costs are charged per GLOBAL column on the total count across
/// parts, so cross-tile recombination is priced exactly.
class GlobalState {
 public:
  GlobalState(const std::vector<TileInstance>& instances,
              const fill::SlackColumns& global, const SolverContext& ctx)
      : instances_(&instances), ctx_(&ctx) {
    const auto& cols = global.columns();
    col_total_.assign(cols.size(), 0);
    col_rf_.assign(cols.size(), 0.0);
    col_table_.resize(cols.size());
    part_counts_.resize(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i)
      part_counts_[i].assign(instances[i].cols.size(), 0);
    // Resistance factors / cost tables, built lazily for touched columns.
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (const InstanceColumn& c : instances[i].cols) {
        if (!c.two_sided || !col_table_[c.column].empty()) continue;
        col_rf_[c.column] = ctx.objective == Objective::kWeighted
                                ? c.res_weighted
                                : c.res_nonweighted;
        col_table_[c.column] =
            column_cost_table(ctx, cols[c.column].gap_um,
                              cols[c.column].capacity);
      }
    }
  }

  /// Install per-part counts (e.g. the per-tile convex solution).
  void set_counts(const std::vector<std::vector<int>>& counts) {
    total_cost_ = 0.0;
    std::fill(col_total_.begin(), col_total_.end(), 0);
    part_counts_ = counts;
    for (std::size_t i = 0; i < counts.size(); ++i)
      for (std::size_t k = 0; k < counts[i].size(); ++k)
        col_total_[(*instances_)[i].cols[k].column] += counts[i][k];
    for (std::size_t c = 0; c < col_total_.size(); ++c)
      total_cost_ += column_cost(static_cast<int>(c), col_total_[c]);
  }

  double total_cost_ps() const { return total_cost_ * 1e-3; }
  const std::vector<std::vector<int>>& part_counts() const {
    return part_counts_;
  }
  int part_count(std::size_t inst, std::size_t k) const {
    return part_counts_[inst][k];
  }

  /// Cost change (ohm*fF) of moving one feature from part `from` of
  /// instance `src` to part `to` of instance `dst` (src may equal dst).
  /// Caller guarantees `from` has a feature and `to` has a free site.
  double move_delta_between(std::size_t src, int from, std::size_t dst,
                            int to) const {
    const int cf = (*instances_)[src].cols[from].column;
    const int ct = (*instances_)[dst].cols[to].column;
    if (cf == ct) return 0.0;
    return column_cost(cf, col_total_[cf] - 1) -
           column_cost(cf, col_total_[cf]) +
           column_cost(ct, col_total_[ct] + 1) -
           column_cost(ct, col_total_[ct]);
  }

  void apply_move_between(std::size_t src, int from, std::size_t dst,
                          int to) {
    total_cost_ += move_delta_between(src, from, dst, to);
    const int cf = (*instances_)[src].cols[from].column;
    const int ct = (*instances_)[dst].cols[to].column;
    col_total_[cf] -= 1;
    col_total_[ct] += 1;
    part_counts_[src][from] -= 1;
    part_counts_[dst][to] += 1;
  }

 private:
  double column_cost(int col, int m) const {
    if (m <= 0 || col_table_[col].empty()) return 0.0;
    PIL_ASSERT(m < static_cast<int>(col_table_[col].size()),
               "column total exceeds global capacity");
    return col_table_[col][m] * col_rf_[col];
  }

  const std::vector<TileInstance>* instances_;
  const SolverContext* ctx_;
  std::vector<std::vector<int>> part_counts_;
  std::vector<int> col_total_;       // per global column
  std::vector<double> col_rf_;       // resistance factor per global column
  std::vector<std::vector<double>> col_table_;  // cost table per column
  double total_cost_ = 0.0;          // ohm*fF
};

}  // namespace

AnnealFlowResult run_annealed_pil_fill_flow(const FillSession& session,
                                            const AnnealConfig& anneal) {
  const FlowConfig& config = session.config();
  PIL_REQUIRE(config.style == cap::FillStyle::kFloating,
              "annealing requires the convex floating model");
  PIL_REQUIRE(anneal.moves_per_feature >= 0 && anneal.initial_temp_frac >= 0,
              "bad anneal configuration");
  PIL_REQUIRE(config.solver_mode == fill::SlackMode::kIII,
              "annealing prices whole gaps; use SlackColumn-III");

  const grid::Dissection& dis = session.dissection();
  const fill::SlackColumns& global = session.global_slack();
  const density::FillTargetResult& target = session.target();
  const layout::Layer& layer = session.layout().layer(config.layer);
  const cap::CouplingModel model(layer.eps_r, layer.thickness_um);
  cap::ColumnCapLut lut(model, config.rules.feature_um);
  const SolverContext ctx = flow_detail::make_context(config, model, lut);

  // Instances for EVERY tile with slack (zero-requirement tiles are legal
  // move destinations as long as the window band allows it).
  std::vector<TileInstance> instances;
  for (int t = 0; t < dis.num_tiles(); ++t) {
    if (global.tile_parts(t).empty()) continue;
    instances.push_back(build_tile_instance(t, target.features_per_tile[t],
                                            global, session.pieces(),
                                            config.net_criticality));
  }

  AnnealFlowResult result;
  std::vector<std::vector<int>> best;
  {
    obs::Stage stage("pilfill.anneal.solve", &result.solve_seconds);
    // Starting counts: the per-tile convex solution (deterministic, matches
    // `start`); zero-requirement tiles start empty.
    std::vector<std::vector<int>> counts(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].required > 0)
        counts[i] = solve_tile_convex(instances[i], ctx).counts;
      else
        counts[i].assign(instances[i].cols.size(), 0);
    }

    GlobalState state(instances, global, ctx);
    state.set_counts(counts);
    result.initial_cost_ps = state.total_cost_ps();

    // Window-density accounting (site-based, matching the targeter): the
    // session's wires and metal plus fa per placed feature, bucketed by the
    // feature's tile.
    const int nwx = dis.windows_x();
    const int nwy = dis.windows_y();
    const double fa = config.rules.feature_area();
    std::vector<double> warea(static_cast<std::size_t>(nwx) * nwy);
    std::vector<double> winarea(warea.size());
    for (int wy = 0; wy < nwy; ++wy) {
      for (int wx = 0; wx < nwx; ++wx) {
        const std::size_t w = static_cast<std::size_t>(wy) * nwx + wx;
        warea[w] = session.wires().window_area(wx, wy);
        winarea[w] = dis.window_rect(wx, wy).area();
      }
    }
    // Windows covering each instance's tile.
    std::vector<std::vector<int>> tile_windows(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const grid::TileIndex t = dis.tile_unflat(instances[i].tile_flat);
      const int wx_lo = std::max(0, t.ix - dis.r() + 1);
      const int wx_hi = std::min(nwx - 1, t.ix);
      const int wy_lo = std::max(0, t.iy - dis.r() + 1);
      const int wy_hi = std::min(nwy - 1, t.iy);
      for (int wy = wy_lo; wy <= wy_hi; ++wy)
        for (int wx = wx_lo; wx <= wx_hi; ++wx)
          tile_windows[i].push_back(wy * nwx + wx);
      for (const int w : tile_windows[i])
        warea[w] += instances[i].required * fa;
    }
    // Density band: never regress below the achieved floor (minus the
    // configured slack); never exceed the targeter's cap.
    double floor_density = 1.0;
    for (std::size_t w = 0; w < warea.size(); ++w)
      floor_density = std::min(floor_density, warea[w] / winarea[w]);
    const double floor_slack = anneal.floor_slack_features * fa;
    const double cap_density = target.upper_bound_used;

    auto can_give = [&](std::size_t i) {
      for (const int w : tile_windows[i])
        if ((warea[w] - fa) / winarea[w] <
            floor_density - floor_slack / winarea[w] - 1e-12)
          return false;
      return true;
    };
    auto can_take = [&](std::size_t i) {
      for (const int w : tile_windows[i])
        if ((warea[w] + fa) / winarea[w] > cap_density + 1e-12) return false;
      return true;
    };

    // Anneal: intra-tile shuffles plus window-feasible inter-tile moves.
    Rng rng(anneal.seed ^ 0xA11EA1u);
    long long total_features = 0;
    for (const auto& c : counts)
      for (const int m : c) total_features += m;
    const long long budget = anneal.moves_per_feature * total_features;
    double temp = anneal.initial_temp_frac *
                  (total_features > 0
                       ? state.total_cost_ps() * 1e3 / total_features
                       : 0.0);
    const double cool =
        budget > 0 && temp > 0 ? std::pow(0.01, 1.0 / budget) : 1.0;

    // Snapshotting every improvement would dominate the runtime (the state
    // is thousands of ints); snapshot sparingly and reconcile with the
    // final state after the loop -- cooling ends in pure descent, so the
    // final state is at or near the best seen.
    best = state.part_counts();
    double best_cost = state.total_cost_ps();
    double snapshot_cost = best_cost;
    long long improvements = 0;

    auto random_part_with_feature = [&](std::size_t i, int& part) {
      const auto& pc = state.part_counts()[i];
      int tries = 8;
      while (tries--) {
        const int k = static_cast<int>(rng.uniform_int(0, pc.size() - 1));
        if (pc[k] > 0) {
          part = k;
          return true;
        }
      }
      return false;
    };
    auto random_part_with_space = [&](std::size_t i, int& part) {
      const auto& pc = state.part_counts()[i];
      int tries = 8;
      while (tries--) {
        const int k = static_cast<int>(rng.uniform_int(0, pc.size() - 1));
        if (pc[k] < instances[i].cols[k].num_sites) {
          part = k;
          return true;
        }
      }
      return false;
    };

    for (long long it = 0; it < budget; ++it, temp *= cool) {
      const bool inter = rng.uniform01() < anneal.inter_tile_fraction;
      const std::size_t src = rng.uniform_int(0, instances.size() - 1);
      const std::size_t dst =
          inter ? static_cast<std::size_t>(
                      rng.uniform_int(0, instances.size() - 1))
                : src;
      if (inter && dst == src) continue;
      int from, to;
      if (!random_part_with_feature(src, from)) continue;
      if (!random_part_with_space(dst, to)) continue;
      if (src == dst && from == to) continue;
      if (inter && (!can_give(src) || !can_take(dst))) continue;
      ++result.moves_tried;
      const double delta = state.move_delta_between(src, from, dst, to);
      const bool accept =
          delta <= 0 ||
          (temp > 0 && rng.uniform01() < std::exp(-delta * 1e-3 / temp));
      if (!accept) continue;
      state.apply_move_between(src, from, dst, to);
      if (inter) {
        for (const int w : tile_windows[src]) warea[w] -= fa;
        for (const int w : tile_windows[dst]) warea[w] += fa;
      }
      ++result.moves_accepted;
      if (state.total_cost_ps() < best_cost - 1e-15) {
        best_cost = state.total_cost_ps();
        if (++improvements % 64 == 0 || best_cost < 0.99 * snapshot_cost) {
          best = state.part_counts();
          snapshot_cost = best_cost;
        }
      }
    }
    if (state.total_cost_ps() <= snapshot_cost) {
      best = state.part_counts();
      result.final_cost_ps = state.total_cost_ps();
    } else {
      result.final_cost_ps = snapshot_cost;
    }
  }

  // Materialize the best placement and score it with the standard evaluator.
  result.features_per_tile.assign(dis.num_tiles(), 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    flow_detail::append_rects(instances[i], best[i], global, config.rules,
                              result.features);
    for (const int m : best[i])
      result.features_per_tile[instances[i].tile_flat] += m;
  }
  result.impact = session.evaluator().evaluate_rects(result.features);

  PIL_INFO("anneal: " << result.initial_cost_ps << " -> "
                      << result.final_cost_ps << " ps model cost, "
                      << result.moves_accepted << "/" << result.moves_tried
                      << " moves accepted");
  return result;
}

}  // namespace pil::pilfill

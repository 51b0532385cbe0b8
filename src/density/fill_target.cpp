#include "pil/density/fill_target.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "pil/lp/simplex.hpp"
#include "pil/util/kernels.hpp"
#include "pil/util/log.hpp"
#include "pil/util/rng.hpp"

namespace pil::density {

namespace {

using grid::Dissection;
using grid::DensityMap;
using grid::TileIndex;

grid::DensityStats stats_with_fill(const DensityMap& wires,
                                   const std::vector<int>& features,
                                   double feature_area) {
  const Dissection& dis = wires.dissection();
  DensityMap after = wires;
  for (int flat = 0; flat < dis.num_tiles(); ++flat)
    after.add_area(dis.tile_unflat(flat), features[flat] * feature_area);
  return after.stats();
}

void resolve_targets(const grid::DensityStats& before, const Dissection& dis,
                     double feature_area, FillTargetConfig cfg, double& L,
                     double& U) {
  L = cfg.lower_target >= 0 ? cfg.lower_target : before.max_density;
  const double win_area = dis.window_um() * dis.window_um();
  U = cfg.upper_bound >= 0 ? cfg.upper_bound
                           : std::max(L, before.max_density) +
                                 2 * feature_area / win_area;
  PIL_REQUIRE(U >= L, "upper bound below lower target");
}

}  // namespace

FillTargetResult compute_fill_amounts_mc(const DensityMap& wires,
                                         const std::vector<int>& tile_capacity,
                                         const fill::FillRules& rules,
                                         const FillTargetConfig& config) {
  const Dissection& dis = wires.dissection();
  PIL_REQUIRE(static_cast<int>(tile_capacity.size()) == dis.num_tiles(),
              "capacity vector size mismatch");
  rules.validate();
  const double fa = rules.feature_area();

  FillTargetResult res;
  res.before = wires.stats();
  double L, U;
  resolve_targets(res.before, dis, fa, config, L, U);
  res.lower_target_used = L;
  res.upper_bound_used = U;

  const int nwx = dis.windows_x();
  const int nwy = dis.windows_y();
  const double win_area = dis.window_um() * dis.window_um();

  // Current window feature areas (wires + fill added so far), computed
  // blockwise in window_area()'s accumulation order.
  std::vector<double> warea(static_cast<std::size_t>(nwx) * nwy);
  util::window_sums(wires.tile_areas().data(), dis.tiles_x(), dis.tiles_y(),
                    dis.r(), warea.data());

  std::vector<int> remaining = tile_capacity;
  res.features_per_tile.assign(dis.num_tiles(), 0);
  std::vector<bool> stuck(warea.size(), false);

  // Min-heap of (density, window) with lazy staleness handling.
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t w = 0; w < warea.size(); ++w)
    heap.emplace(warea[w] / win_area, static_cast<int>(w));

  Rng rng(config.seed);
  std::vector<int> candidates;

  while (!heap.empty()) {
    const auto [dens, w] = heap.top();
    heap.pop();
    if (stuck[w]) continue;
    const double current = warea[w] / win_area;
    if (current > dens + 1e-15) {  // stale entry; reinsert fresh
      heap.emplace(current, w);
      continue;
    }
    if (current >= L - 1e-12) break;  // minimum reached the target

    const int wx = w % nwx;
    const int wy = w / nwx;
    // Candidate tiles: slack capacity left and all covering windows stay
    // <= U. The covering windows form a contiguous block of warea rows, so
    // the feasibility test and the area update run as block kernels; the
    // hoisted threshold equals the per-check expression exactly.
    const double threshold = U * win_area + 1e-12;
    candidates.clear();
    for (int iy = wy; iy < wy + dis.r(); ++iy) {
      for (int ix = wx; ix < wx + dis.r(); ++ix) {
        if (ix >= dis.tiles_x() || iy >= dis.tiles_y()) continue;
        const int flat = dis.tile_flat(TileIndex{ix, iy});
        if (remaining[flat] <= 0) continue;
        const bool ok = !util::block_any_above(
            warea.data(), nwx, std::max(0, ix - dis.r() + 1),
            std::min(nwx - 1, ix), std::max(0, iy - dis.r() + 1),
            std::min(nwy - 1, iy), fa, threshold);
        if (ok) candidates.push_back(flat);
      }
    }
    if (candidates.empty()) {
      stuck[w] = true;  // cannot improve this window any further
      continue;
    }
    const int flat = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    remaining[flat] -= 1;
    res.features_per_tile[flat] += 1;
    ++res.total_features;
    const TileIndex t = dis.tile_unflat(flat);
    util::block_add_scalar(warea.data(), nwx, std::max(0, t.ix - dis.r() + 1),
                           std::min(nwx - 1, t.ix),
                           std::max(0, t.iy - dis.r() + 1),
                           std::min(nwy - 1, t.iy), fa);
    heap.emplace(warea[w] / win_area, w);
  }

  res.after = stats_with_fill(wires, res.features_per_tile, fa);
  PIL_INFO("fill target (MC): " << res.total_features << " features, window "
           << "density " << res.before.min_density << ".." << res.before.max_density
           << " -> " << res.after.min_density << ".." << res.after.max_density);
  return res;
}

FillTargetResult compute_fill_amounts_lp(const DensityMap& wires,
                                         const std::vector<int>& tile_capacity,
                                         const fill::FillRules& rules,
                                         const FillTargetConfig& config) {
  const Dissection& dis = wires.dissection();
  PIL_REQUIRE(static_cast<int>(tile_capacity.size()) == dis.num_tiles(),
              "capacity vector size mismatch");
  rules.validate();
  const double fa = rules.feature_area();

  FillTargetResult res;
  res.before = wires.stats();
  double L, U;
  resolve_targets(res.before, dis, fa, config, L, U);
  res.lower_target_used = L;
  res.upper_bound_used = U;

  const int nwx = dis.windows_x();
  const int nwy = dis.windows_y();
  const double win_area = dis.window_um() * dis.window_um();

  // Variables: fill area a_T per tile in [0, cap_T * fa]; plus M (the
  // minimum window density, to be maximized but capped at L -- pushing past
  // L is pointless and keeps the LP bounded).
  lp::LpProblem prob;
  std::vector<int> tile_var(dis.num_tiles());
  for (int flat = 0; flat < dis.num_tiles(); ++flat)
    tile_var[flat] = prob.add_var(0.0, tile_capacity[flat] * fa, 0.0);
  const int m_var = prob.add_var(0.0, L, -1.0);  // minimize -M

  for (int wy = 0; wy < nwy; ++wy) {
    for (int wx = 0; wx < nwx; ++wx) {
      std::vector<lp::RowEntry> entries;
      for (int iy = wy; iy < wy + dis.r(); ++iy)
        for (int ix = wx; ix < wx + dis.r(); ++ix)
          entries.push_back(
              {tile_var[dis.tile_flat(TileIndex{ix, iy})], 1.0});
      const double worig = wires.window_area(wx, wy);
      // wire + fill >= M * win_area   <=>   fill - win_area*M >= -wire
      auto ge = entries;
      ge.push_back({m_var, -win_area});
      prob.add_row(lp::Sense::kGe, -worig, std::move(ge));
      // wire + fill <= U * win_area
      prob.add_row(lp::Sense::kLe, U * win_area - worig, std::move(entries));
    }
  }

  const lp::LpSolution sol = lp::solve_lp(prob);
  PIL_REQUIRE(sol.status == lp::SolveStatus::kOptimal,
              std::string("min-var fill LP failed: ") + to_string(sol.status));

  res.features_per_tile.assign(dis.num_tiles(), 0);
  for (int flat = 0; flat < dis.num_tiles(); ++flat) {
    int m = static_cast<int>(std::floor(sol.x[tile_var[flat]] / fa + 0.5));
    m = std::clamp(m, 0, tile_capacity[flat]);
    res.features_per_tile[flat] = m;
    res.total_features += m;
  }
  res.after = stats_with_fill(wires, res.features_per_tile, fa);
  PIL_INFO("fill target (LP): " << res.total_features << " features, M = "
                                << sol.x[m_var]);
  return res;
}

FillTargetResult compute_fill_amounts_min_fill_lp(
    const DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config) {
  const Dissection& dis = wires.dissection();
  PIL_REQUIRE(static_cast<int>(tile_capacity.size()) == dis.num_tiles(),
              "capacity vector size mismatch");
  rules.validate();
  const double fa = rules.feature_area();

  FillTargetResult res;
  res.before = wires.stats();
  double L, U;
  resolve_targets(res.before, dis, fa, config, L, U);

  // Feasibility: L can never exceed what min-var fill could reach; solve
  // the min-var LP first and clamp.
  {
    FillTargetConfig probe = config;
    const FillTargetResult minvar =
        compute_fill_amounts_lp(wires, tile_capacity, rules, probe);
    L = std::min(L, minvar.after.min_density);
  }
  res.lower_target_used = L;
  res.upper_bound_used = U;

  const int nwx = dis.windows_x();
  const int nwy = dis.windows_y();
  const double win_area = dis.window_um() * dis.window_um();

  // Variables: fill area per tile; minimize their sum.
  lp::LpProblem prob;
  std::vector<int> tile_var(dis.num_tiles());
  for (int flat = 0; flat < dis.num_tiles(); ++flat)
    tile_var[flat] = prob.add_var(0.0, tile_capacity[flat] * fa, 1.0);
  for (int wy = 0; wy < nwy; ++wy) {
    for (int wx = 0; wx < nwx; ++wx) {
      std::vector<lp::RowEntry> entries;
      for (int iy = wy; iy < wy + dis.r(); ++iy)
        for (int ix = wx; ix < wx + dis.r(); ++ix)
          entries.push_back({tile_var[dis.tile_flat(TileIndex{ix, iy})], 1.0});
      const double worig = wires.window_area(wx, wy);
      auto ge = entries;
      prob.add_row(lp::Sense::kGe, L * win_area - worig, std::move(ge));
      prob.add_row(lp::Sense::kLe, U * win_area - worig, std::move(entries));
    }
  }

  const lp::LpSolution sol = lp::solve_lp(prob);
  PIL_REQUIRE(sol.status == lp::SolveStatus::kOptimal,
              std::string("min-fill LP failed: ") + to_string(sol.status));

  res.features_per_tile.assign(dis.num_tiles(), 0);
  for (int flat = 0; flat < dis.num_tiles(); ++flat) {
    // Round UP so the density floor survives quantization, capacity
    // permitting.
    int m = static_cast<int>(std::ceil(sol.x[tile_var[flat]] / fa - 1e-9));
    m = std::clamp(m, 0, tile_capacity[flat]);
    res.features_per_tile[flat] = m;
    res.total_features += m;
  }
  res.after = stats_with_fill(wires, res.features_per_tile, fa);
  PIL_INFO("fill target (min-fill LP): " << res.total_features
                                         << " features, floor " << L);
  return res;
}

}  // namespace pil::density

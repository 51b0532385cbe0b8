#include "pil/density/fill_target.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "pil/lp/simplex.hpp"
#include "pil/util/log.hpp"
#include "pil/util/rng.hpp"

namespace pil::density {

namespace {

using grid::Dissection;
using grid::DensityMap;
using grid::TileIndex;

/// Windows covering tile (ix, iy): lower-left window indices.
template <typename F>
void for_covering_windows(const Dissection& dis, int ix, int iy, F&& fn) {
  const int wx_lo = std::max(0, ix - dis.r() + 1);
  const int wx_hi = std::min(dis.windows_x() - 1, ix);
  const int wy_lo = std::max(0, iy - dis.r() + 1);
  const int wy_hi = std::min(dis.windows_y() - 1, iy);
  for (int wy = wy_lo; wy <= wy_hi; ++wy)
    for (int wx = wx_lo; wx <= wx_hi; ++wx) fn(wx, wy);
}

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

  // Current window feature areas (wires + fill added so far), and each
  // window's own area: a die that is not a tile multiple clips its edge
  // windows, and the density stats and check_fill divide by the clipped
  // area.
  std::vector<double> warea(static_cast<std::size_t>(nwx) * nwy);
  std::vector<double> win_area(warea.size());
  for (int wy = 0; wy < nwy; ++wy) {
    for (int wx = 0; wx < nwx; ++wx) {
      const std::size_t w = static_cast<std::size_t>(wy) * nwx + wx;
      warea[w] = wires.window_area(wx, wy);
      win_area[w] = dis.window_rect(wx, wy).area();
    }
  }

  std::vector<int> remaining = tile_capacity;
  res.features_per_tile.assign(dis.num_tiles(), 0);
  std::vector<bool> stuck(warea.size(), false);

  // Min-heap of (density, window) with lazy staleness handling.
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t w = 0; w < warea.size(); ++w)
    heap.emplace(warea[w] / win_area[w], static_cast<int>(w));

  Rng rng(config.seed);
  std::vector<int> candidates;

  while (!heap.empty()) {
    const auto [dens, w] = heap.top();
    heap.pop();
    if (stuck[w]) continue;
    const double current = warea[w] / win_area[w];
    if (current > dens + 1e-15) {  // stale entry; reinsert fresh
      heap.emplace(current, w);
      continue;
    }
    if (current >= L - 1e-12) break;  // minimum reached the target

    const int wx = w % nwx;
    const int wy = w / nwx;
    // Candidate tiles: slack capacity left and all covering windows stay <= U.
    candidates.clear();
    for (int iy = wy; iy < wy + dis.r(); ++iy) {
      for (int ix = wx; ix < wx + dis.r(); ++ix) {
        if (ix >= dis.tiles_x() || iy >= dis.tiles_y()) continue;
        const int flat = dis.tile_flat(TileIndex{ix, iy});
        if (remaining[flat] <= 0) continue;
        bool ok = true;
        for_covering_windows(dis, ix, iy, [&](int cwx, int cwy) {
          const std::size_t cw = static_cast<std::size_t>(cwy) * nwx + cwx;
          if (warea[cw] + fa > U * win_area[cw] + 1e-12) ok = false;
        });
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
    for_covering_windows(dis, t.ix, t.iy, [&](int cwx, int cwy) {
      warea[static_cast<std::size_t>(cwy) * nwx + cwx] += fa;
    });
    heap.emplace(warea[w] / win_area[w], w);
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
      const double wa = dis.window_rect(wx, wy).area();  // clipped at edges
      // wire + fill >= M * wa   <=>   fill - wa*M >= -wire
      auto ge = entries;
      ge.push_back({m_var, -wa});
      prob.add_row(lp::Sense::kGe, -worig, std::move(ge));
      // wire + fill <= U * wa
      prob.add_row(lp::Sense::kLe, U * wa - worig, std::move(entries));
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
      const double wa = dis.window_rect(wx, wy).area();  // clipped at edges
      auto ge = entries;
      prob.add_row(lp::Sense::kGe, L * wa - worig, std::move(ge));
      prob.add_row(lp::Sense::kLe, U * wa - worig, std::move(entries));
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

#include "pil/density/fill_target.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>

#include "pil/lp/simplex.hpp"
#include "pil/util/error.hpp"
#include "pil/util/log.hpp"
#include "pil/util/rng.hpp"

namespace pil::density {

namespace {

using grid::Dissection;
using grid::DensityMap;
using grid::TileIndex;

/// The window LP keeps a dense basis inverse over two rows per window, so
/// its time grows steeply with the window count (Release, 4 vCPU: 625
/// windows take 1.2 s min-var and 14 s min-fill, 2025 windows 213 s
/// min-var). Past this many windows the LP engines refuse to start.
constexpr int kMaxLpWindows = 1024;

/// Tiles of flat window `w`, row by row.
template <typename F>
void for_window_tiles(const Dissection& dis, int w, F&& fn) {
  const int wx = w % dis.windows_x();
  const int wy = w / dis.windows_x();
  for (int iy = wy; iy < wy + dis.r(); ++iy)
    for (int ix = wx; ix < wx + dis.r(); ++ix) fn(TileIndex{ix, iy});
}

/// Windows covering tile `t`: flat window indices.
template <typename F>
void for_covering_windows(const Dissection& dis, TileIndex t, F&& fn) {
  const int wx_lo = std::max(0, t.ix - dis.r() + 1);
  const int wx_hi = std::min(dis.windows_x() - 1, t.ix);
  const int wy_lo = std::max(0, t.iy - dis.r() + 1);
  const int wy_hi = std::min(dis.windows_y() - 1, t.iy);
  for (int wy = wy_lo; wy <= wy_hi; ++wy)
    for (int wx = wx_lo; wx <= wx_hi; ++wx)
      fn(static_cast<std::size_t>(wy) * dis.windows_x() + wx);
}

/// What every engine shares: the checked inputs, the resolved targets and,
/// per window, its wire area and its own area. A die that is not a tile
/// multiple clips its edge windows, and the density stats and check_fill
/// divide by the clipped area.
struct Targeting {
  const DensityMap& wires;
  const Dissection& dis;
  const std::vector<int>& capacity;
  double fa = 0.0;  ///< one fill feature's area
  double L = 0.0;
  double U = 0.0;
  grid::DensityStats before;
  std::vector<double> wire_area;
  std::vector<double> win_area;

  Targeting(const DensityMap& w, const std::vector<int>& cap,
            const fill::FillRules& rules, const FillTargetConfig& cfg)
      : wires(w), dis(w.dissection()), capacity(cap) {
    PIL_REQUIRE(static_cast<int>(capacity.size()) == dis.num_tiles(),
                "capacity vector size mismatch");
    rules.validate();
    fa = rules.feature_area();
    before = wires.stats();
    L = cfg.lower_target >= 0 ? cfg.lower_target : before.max_density;
    U = cfg.upper_bound >= 0 ? cfg.upper_bound
                             : std::max(L, before.max_density) +
                                   2 * fa / (dis.window_um() * dis.window_um());
    PIL_REQUIRE(U >= L, "upper bound below lower target");
    for (int wy = 0; wy < dis.windows_y(); ++wy) {
      for (int wx = 0; wx < dis.windows_x(); ++wx) {
        wire_area.push_back(wires.window_area(wx, wy));
        win_area.push_back(dis.window_rect(wx, wy).area());
      }
    }
  }

  /// The window LP over per-tile fill areas a_T in [0, cap_T * fa], with
  /// wire + fill <= U * area on every window. Min-var maximises the
  /// minimum window density M, capped at L (pushing past L is pointless
  /// and keeps the LP bounded): wire + fill >= M * area. Min-fill
  /// minimises the total fill with wire + fill >= L * area. Returns the
  /// tile areas, followed by M for min-var.
  std::vector<double> solve_window_lp(bool min_fill, const char* engine) const {
    if (dis.num_windows() > kMaxLpWindows)
      throw Error(std::string(engine) + " fill targeting: " +
                  std::to_string(dis.num_windows()) +
                  " windows exceed the LP limit of " +
                  std::to_string(kMaxLpWindows) +
                  "; use the Monte-Carlo targeter");
    lp::LpProblem prob;
    for (int flat = 0; flat < dis.num_tiles(); ++flat)  // variable = tile
      prob.add_var(0.0, capacity[flat] * fa, min_fill ? 1.0 : 0.0);
    const int m_var = min_fill ? -1 : prob.add_var(0.0, L, -1.0);
    for (std::size_t w = 0; w < win_area.size(); ++w) {
      std::vector<lp::RowEntry> entries;
      for_window_tiles(dis, static_cast<int>(w), [&](TileIndex t) {
        entries.push_back({dis.tile_flat(t), 1.0});
      });
      std::vector<lp::RowEntry> ge = entries;
      double floor_area = L * win_area[w];  // min-fill's fixed floor
      if (!min_fill) {  // min-var's floor is M * area
        ge.push_back({m_var, -win_area[w]});
        floor_area = 0.0;
      }
      prob.add_row(lp::Sense::kGe, floor_area - wire_area[w], std::move(ge));
      prob.add_row(lp::Sense::kLe, U * win_area[w] - wire_area[w],
                   std::move(entries));
    }
    lp::LpSolution sol = lp::solve_lp(prob);
    if (sol.status != lp::SolveStatus::kOptimal)
      throw Error(std::string(engine) + " fill targeting failed: " +
                  to_string(sol.status));
    return std::move(sol.x);
  }

  /// An LP's tile areas as whole features, rounded down: every window
  /// keeps its LP density or less, so none passes U.
  std::vector<int> floored(const std::vector<double>& lp_areas) const {
    std::vector<int> start(dis.num_tiles());
    for (int flat = 0; flat < dis.num_tiles(); ++flat)
      start[flat] = std::clamp(
          static_cast<int>(std::floor(lp_areas[flat] / fa)), 0,
          capacity[flat]);
    return start;
  }

  /// The integral step every engine ends in. From `start` features per
  /// tile, repeatedly take the lowest-density window and add one feature
  /// to the tile `pick` chooses among the window's candidates: tiles that
  /// (a) still have slack capacity and (b) keep every covering window at
  /// or below U. Stops when the minimum window density reaches L, no
  /// window can be raised, or `pick` returns -1: U is a hard cap, L a
  /// target that U overrides.
  template <typename Pick>
  FillTargetResult top_up(std::vector<int> start, Pick&& pick,
                          const char* engine) const {
    std::vector<double> warea = wire_area;  // wires + fill so far
    for (int flat = 0; flat < dis.num_tiles(); ++flat) {
      if (start[flat] == 0) continue;
      for_covering_windows(dis, dis.tile_unflat(flat), [&](std::size_t cw) {
        warea[cw] += start[flat] * fa;
      });
    }

    FillTargetResult res;
    res.before = before;
    res.lower_target_used = L;
    res.upper_bound_used = U;
    res.features_per_tile = std::move(start);
    std::vector<bool> stuck(warea.size(), false);

    // Min-heap of (density, window) with lazy staleness handling.
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t w = 0; w < warea.size(); ++w)
      heap.emplace(warea[w] / win_area[w], static_cast<int>(w));

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

      candidates.clear();
      for_window_tiles(dis, w, [&](TileIndex t) {
        const int flat = dis.tile_flat(t);
        if (res.features_per_tile[flat] >= capacity[flat]) return;
        bool ok = true;
        for_covering_windows(dis, t, [&](std::size_t cw) {
          if (warea[cw] + fa > U * win_area[cw] + 1e-12) ok = false;
        });
        if (ok) candidates.push_back(flat);
      });
      if (candidates.empty()) {
        stuck[w] = true;  // cannot improve this window any further
        continue;
      }
      const int at = pick(candidates);
      if (at < 0) break;  // the pick stops the loop
      PIL_REQUIRE(at < static_cast<int>(candidates.size()),
                  "tile pick out of range");
      const int flat = candidates[at];
      res.features_per_tile[flat] += 1;
      for_covering_windows(dis, dis.tile_unflat(flat),
                           [&](std::size_t cw) { warea[cw] += fa; });
      heap.emplace(warea[w] / win_area[w], w);
    }

    DensityMap after = wires;
    for (int flat = 0; flat < dis.num_tiles(); ++flat) {
      res.total_features += res.features_per_tile[flat];
      after.add_area(dis.tile_unflat(flat), res.features_per_tile[flat] * fa);
    }
    res.after = after.stats();
    PIL_INFO("fill target (" << engine << "): " << res.total_features
             << " features, window density " << before.min_density << ".."
             << before.max_density << " -> " << res.after.min_density << ".."
             << res.after.max_density);
    return res;
  }
};

/// The engines' choice of tile: uniform over the candidates, one draw per
/// feature from `seed`.
auto uniform_pick(std::uint64_t seed) {
  return [rng = Rng(seed)](const std::vector<int>& candidates) mutable {
    return static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
  };
}

}  // namespace

FillTargetResult compute_fill_amounts_mc(const DensityMap& wires,
                                         const std::vector<int>& tile_capacity,
                                         const fill::FillRules& rules,
                                         const FillTargetConfig& config) {
  const Targeting t(wires, tile_capacity, rules, config);
  return t.top_up(std::vector<int>(tile_capacity.size(), 0),
                  uniform_pick(config.seed), "MC");
}

FillTargetResult compute_fill_amounts_lp(const DensityMap& wires,
                                         const std::vector<int>& tile_capacity,
                                         const fill::FillRules& rules,
                                         const FillTargetConfig& config) {
  const Targeting t(wires, tile_capacity, rules, config);
  const char* engine = "min-var LP";
  return t.top_up(t.floored(t.solve_window_lp(/*min_fill=*/false, engine)),
                  uniform_pick(config.seed), engine);
}

FillTargetResult compute_fill_amounts_min_fill_lp(
    const DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config) {
  Targeting t(wires, tile_capacity, rules, config);
  const char* engine = "min-fill LP";
  // L can never exceed the min-var optimum M; clamping it there keeps the
  // min-fill LP feasible.
  t.L = std::min(t.L, t.solve_window_lp(/*min_fill=*/false, engine).back());
  return t.top_up(t.floored(t.solve_window_lp(/*min_fill=*/true, engine)),
                  uniform_pick(config.seed), engine);
}

FillTargetResult compute_fill_amounts_picked(
    const DensityMap& wires, const std::vector<int>& tile_capacity,
    const fill::FillRules& rules, const FillTargetConfig& config,
    const TilePick& pick) {
  const Targeting t(wires, tile_capacity, rules, config);
  return t.top_up(std::vector<int>(tile_capacity.size(), 0), pick,
                  "caller's pick");
}

}  // namespace pil::density

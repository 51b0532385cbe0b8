// Tests for pil/density: Monte-Carlo and LP fill-amount computation.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <utility>

#include "pil/density/fill_target.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/pilfill/session.hpp"

namespace pil::density {
namespace {

using grid::DensityMap;
using grid::Dissection;

const fill::FillRules kRules{};  // 0.5 um features

/// A tiny dissection with one dense quadrant; everything has fill capacity.
struct Fixture {
  Dissection dis{geom::Rect{0, 0, 16, 16}, 8.0, 2};  // tile 4, 4x4 tiles
  DensityMap wires{dis};
  std::vector<int> capacity;

  Fixture() {
    wires.add_rect(geom::Rect{0, 0, 8, 8});  // one full window
    capacity.assign(dis.num_tiles(), 200);
  }
};

TEST(FillTargetMc, RaisesMinTowardTarget) {
  Fixture f;
  const FillTargetResult r =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  EXPECT_GT(r.total_features, 0);
  EXPECT_GT(r.after.min_density, r.before.min_density);
  EXPECT_LE(r.after.max_density, r.upper_bound_used + 1e-9);
  // Variation must not get worse.
  EXPECT_LE(r.after.variation(), r.before.variation() + 1e-9);
}

TEST(FillTargetMc, FeatureCountsRespectCapacity) {
  Fixture f;
  for (auto& c : f.capacity) c = 3;
  const FillTargetResult r =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  for (int t = 0; t < f.dis.num_tiles(); ++t) {
    EXPECT_GE(r.features_per_tile[t], 0);
    EXPECT_LE(r.features_per_tile[t], 3);
  }
  EXPECT_EQ(std::accumulate(r.features_per_tile.begin(),
                            r.features_per_tile.end(), 0LL),
            r.total_features);
}

TEST(FillTargetMc, ZeroCapacityPlacesNothing) {
  Fixture f;
  std::fill(f.capacity.begin(), f.capacity.end(), 0);
  const FillTargetResult r =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  EXPECT_EQ(r.total_features, 0);
}

TEST(FillTargetMc, AlreadyUniformNeedsNoFill) {
  Dissection dis(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap wires(dis);
  wires.add_rect(geom::Rect{0, 0, 16, 16});  // 100% everywhere
  std::vector<int> cap(dis.num_tiles(), 10);
  const FillTargetResult r = compute_fill_amounts_mc(wires, cap, kRules);
  EXPECT_EQ(r.total_features, 0);
}

TEST(FillTargetMc, ExplicitTargetsHonored) {
  // Start below the cap everywhere (fill cannot remove existing wire area,
  // so U only binds what is added). On the 18 um die the top and right
  // windows are clipped to 6 um: U holds on each window's own area, which
  // is what the density stats and the checker measure.
  for (const double side : {16.0, 18.0}) {
    SCOPED_TRACE(side);
    Dissection dis(geom::Rect{0, 0, side, side}, 8.0, 2);
    DensityMap wires(dis);
    wires.add_rect(geom::Rect{0, 0, 4, 4});  // window (0,0) at 0.25
    std::vector<int> capacity(dis.num_tiles(), 200);
    FillTargetConfig cfg;
    cfg.lower_target = 0.3;
    cfg.upper_bound = 0.5;
    const FillTargetResult r =
        compute_fill_amounts_mc(wires, capacity, kRules, cfg);
    EXPECT_DOUBLE_EQ(r.lower_target_used, 0.3);
    EXPECT_DOUBLE_EQ(r.upper_bound_used, 0.5);
    EXPECT_LE(r.after.max_density, 0.5 + 1e-9);
    EXPECT_GE(r.after.min_density, 0.3 - kRules.feature_area() / 64 - 1e-9);
    // Both LP engines end in the same capped top-up.
    EXPECT_LE(compute_fill_amounts_lp(wires, capacity, kRules, cfg)
                  .after.max_density,
              0.5 + 1e-9);
    EXPECT_LE(compute_fill_amounts_min_fill_lp(wires, capacity, kRules, cfg)
                  .after.max_density,
              0.5 + 1e-9);
  }
}

TEST(FillTargetMc, RejectsContradictoryTargets) {
  Fixture f;
  FillTargetConfig cfg;
  cfg.lower_target = 0.5;
  cfg.upper_bound = 0.2;
  EXPECT_THROW(compute_fill_amounts_mc(f.wires, f.capacity, kRules, cfg),
               Error);
}

TEST(FillTargetMc, DeterministicInSeed) {
  Fixture f;
  const FillTargetResult a =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  const FillTargetResult b =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  EXPECT_EQ(a.features_per_tile, b.features_per_tile);
  FillTargetConfig other;
  other.seed = 12345;
  const FillTargetResult c =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules, other);
  // A different seed permutes the placement but the achieved quality is the
  // same to within a couple of features per window.
  EXPECT_NEAR(static_cast<double>(c.total_features),
              static_cast<double>(a.total_features),
              0.05 * static_cast<double>(a.total_features) + 8.0);
}

TEST(FillTargetMc, RejectsWrongCapacitySize) {
  Fixture f;
  std::vector<int> bad(3, 10);
  EXPECT_THROW(compute_fill_amounts_mc(f.wires, bad, kRules), Error);
}

// ---------------------------------------------------------------- LP ----

TEST(FillTargetLp, MatchesMcOnSimpleCase) {
  Fixture f;
  const FillTargetResult mc =
      compute_fill_amounts_mc(f.wires, f.capacity, kRules);
  const FillTargetResult lp =
      compute_fill_amounts_lp(f.wires, f.capacity, kRules);
  // Same targets, similar achieved min density (LP is exact; MC greedy).
  EXPECT_DOUBLE_EQ(mc.lower_target_used, lp.lower_target_used);
  EXPECT_GE(lp.after.min_density, mc.after.min_density - 0.02);
  EXPECT_LE(lp.after.max_density, lp.upper_bound_used + 1e-6);
}

TEST(FillTargetLp, CapacityBindsTheOptimum) {
  Fixture f;
  std::fill(f.capacity.begin(), f.capacity.end(), 2);
  const FillTargetResult r =
      compute_fill_amounts_lp(f.wires, f.capacity, kRules);
  for (int t = 0; t < f.dis.num_tiles(); ++t)
    EXPECT_LE(r.features_per_tile[t], 2);
  // With tiny capacity the min density cannot reach the target.
  EXPECT_LT(r.after.min_density, r.lower_target_used);
}

TEST(FillTargetLp, RefusesDissectionsPastTheWindowLimit) {
  // T2 at W = 20, r = 8 has 45 x 45 windows. The dense window LP would run
  // for minutes (213 s for min-var alone on 4 vCPUs), so both LP engines
  // refuse before building it, naming themselves and the window count.
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 20.0, 8);
  ASSERT_EQ(dis.num_windows(), 2025);
  DensityMap wires(dis);
  wires.add_layer_metal(l, 0);
  const std::vector<int> cap(dis.num_tiles(), 1000);
  for (const auto& [engine, targeter] :
       {std::pair{"min-var", &compute_fill_amounts_lp},
        std::pair{"min-fill", &compute_fill_amounts_min_fill_lp}}) {
    SCOPED_TRACE(engine);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      targeter(wires, cap, kRules, FillTargetConfig{});
      ADD_FAILURE() << "no window limit";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(engine), std::string::npos) << what;
      EXPECT_NE(what.find("2025"), std::string::npos) << what;
    }
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              1.0);
  }
}

TEST(FillTargetLp, UniformLayoutNeedsNothing) {
  Dissection dis(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap wires(dis);
  wires.add_rect(geom::Rect{0, 0, 16, 16});
  std::vector<int> cap(dis.num_tiles(), 10);
  const FillTargetResult r = compute_fill_amounts_lp(wires, cap, kRules);
  EXPECT_EQ(r.total_features, 0);
}

// ------------------------------------------------------------ min-fill ----

TEST(MinFillLp, UsesFewerFeaturesForTheSameFloor) {
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 2);
  DensityMap wires(dis);
  wires.add_layer_metal(l, 0);
  std::vector<int> cap(dis.num_tiles(), 1000);

  const FillTargetResult minvar = compute_fill_amounts_lp(wires, cap, kRules);
  FillTargetConfig cfg;
  cfg.lower_target = minvar.after.min_density;  // the same density floor
  const FillTargetResult minfill =
      compute_fill_amounts_min_fill_lp(wires, cap, kRules, cfg);

  // Same floor achieved (up to one feature per window of rounding)...
  EXPECT_GE(minfill.after.min_density,
            cfg.lower_target - 2 * kRules.feature_area() / (32.0 * 32.0));
  // ...with no more features than the uniformity-maximizing solution.
  EXPECT_LE(minfill.total_features, minvar.total_features);
  EXPECT_GT(minfill.total_features, 0);
}

TEST(MinFillLp, InfeasibleFloorIsClampedNotFatal) {
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 2);
  DensityMap wires(dis);
  wires.add_layer_metal(l, 0);
  std::vector<int> cap(dis.num_tiles(), 2);  // almost no capacity
  FillTargetConfig cfg;
  cfg.lower_target = 0.9;  // impossible
  cfg.upper_bound = 0.95;
  const FillTargetResult r =
      compute_fill_amounts_min_fill_lp(wires, cap, kRules, cfg);
  EXPECT_LT(r.lower_target_used, 0.9);  // clamped to what is achievable
  for (int t = 0; t < dis.num_tiles(); ++t)
    EXPECT_LE(r.features_per_tile[t], 2);
}

TEST(MinFillLp, UniformLayoutNeedsNothing) {
  Dissection dis(geom::Rect{0, 0, 16, 16}, 8.0, 2);
  DensityMap wires(dis);
  wires.add_rect(geom::Rect{0, 0, 16, 16});
  std::vector<int> cap(dis.num_tiles(), 10);
  const FillTargetResult r =
      compute_fill_amounts_min_fill_lp(wires, cap, kRules);
  EXPECT_EQ(r.total_features, 0);
}

// On a realistic layout, MC must approach the LP optimum from below.
TEST(FillTargetProperty, McNearLpOnRealLayout) {
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 2);
  DensityMap wires(dis);
  wires.add_layer_metal(l, 0);
  std::vector<int> cap(dis.num_tiles(), 1000);  // ample capacity

  const FillTargetResult mc = compute_fill_amounts_mc(wires, cap, kRules);
  const FillTargetResult lp = compute_fill_amounts_lp(wires, cap, kRules);
  // Exact LP min density is an upper bound for the greedy (minus rounding).
  EXPECT_LE(mc.after.min_density,
            lp.after.min_density + 2 * kRules.feature_area() / (32.0 * 32.0));
  // Both respect the cap.
  EXPECT_LE(mc.after.max_density, mc.upper_bound_used + 1e-9);
  EXPECT_LE(lp.after.max_density, lp.upper_bound_used + 1e-6);
  // And the greedy gets reasonably close (within 15% relative).
  if (lp.after.min_density > 0)
    EXPECT_GT(mc.after.min_density, 0.85 * lp.after.min_density);
}

// U is a hard cap for every engine: the LP engines round their optimum
// down and top up like MC, so no window ends above U, even where integral
// rounding keeps L out of reach. Run on the flow's own slack capacities,
// on every T2 row whose LPs finish within about a second (Release, 4
// vCPU: min-fill takes 7 s at W = 20, r = 4 and 14 s at W = 32, r = 8).
TEST(FillTargetProperty, EveryEngineStaysUnderU) {
  const layout::Layout l = layout::make_testcase_t2();
  using pilfill::TargetEngine;
  struct Row {
    int window_um;
    int r;
    std::vector<TargetEngine> engines;
  };
  const std::vector<TargetEngine> all = {TargetEngine::kMonteCarlo,
                                         TargetEngine::kMinVarLp,
                                         TargetEngine::kMinFillLp};
  for (const Row& row : {Row{32, 2, all}, Row{32, 4, all}, Row{20, 2, all},
                         Row{20, 4, {TargetEngine::kMinVarLp}}}) {
    for (const TargetEngine engine : row.engines) {
      SCOPED_TRACE(std::to_string(row.window_um) + "/" +
                   std::to_string(row.r) + " " + pilfill::to_string(engine));
      pilfill::FlowConfig config;
      config.window_um = row.window_um;
      config.r = row.r;
      config.target_engine = engine;
      const pilfill::FillSession session(l, config);
      const FillTargetResult& t = session.target();
      EXPECT_LE(t.after.max_density, t.upper_bound_used + 1e-9);
      EXPECT_GT(t.total_features, 0);
    }
  }
}

}  // namespace
}  // namespace pil::density

// End-to-end integration tests: the full PIL-Fill flow on the canonical
// testcases, checking the paper's qualitative claims and cross-method
// consistency (identical density control, solver orderings, determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "paper_shape.hpp"
#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;
using paper_shape::find;
using paper_shape::kAllMethods;

FlowResult run_t2(double window, int r,
                  Objective obj = Objective::kNonWeighted,
                  fill::SlackMode mode = fill::SlackMode::kIII) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = window;
  config.r = r;
  config.objective = obj;
  config.solver_mode = mode;
  return run_pil_fill_flow(l, config, kAllMethods);
}

TEST(Flow, AllMethodsPlaceIdenticalCounts) {
  const FlowResult res = run_t2(32, 4);
  const auto& normal = find(res, Method::kNormal);
  for (const auto& mr : res.methods) {
    EXPECT_EQ(mr.placed, normal.placed) << to_string(mr.method);
    EXPECT_EQ(mr.shortfall, 0) << to_string(mr.method);
    // Identical per-tile counts = identical density control quality.
    EXPECT_EQ(mr.placement.features_per_tile, normal.placement.features_per_tile)
        << to_string(mr.method);
  }
}

TEST(Flow, DensityControlIdenticalAcrossMethods) {
  const FlowResult res = run_t2(32, 4);
  const auto& normal = find(res, Method::kNormal);
  // Per-tile counts are identical; drawn-area window densities may differ by
  // a handful of boundary-straddling features.
  const double tol = 10 * fill::FillRules{}.feature_area() / (32.0 * 32.0);
  for (const auto& mr : res.methods) {
    EXPECT_NEAR(mr.density_after.min_density,
                normal.density_after.min_density, tol);
    EXPECT_NEAR(mr.density_after.max_density,
                normal.density_after.max_density, tol);
  }
  // And fill really improved uniformity.
  EXPECT_LT(normal.density_after.variation(),
            res.density_before.variation());
}

// Tables 1 and 2 on every T2 row: ILP-II best, Greedy between Normal and
// ILP-II, each on the objective the table optimizes.
TEST(Flow, PaperOrderingIlp2BestGreedyBetween) {
  paper_shape::expect_paper_ordering(layout::make_testcase_t2());
}

TEST(Flow, Ilp2ReductionInPaperBandOnCoarseDissection) {
  const FlowResult res = run_t2(32, 2);
  const double normal = find(res, Method::kNormal).impact.delay_ps;
  const double ilp2 = find(res, Method::kIlp2).impact.delay_ps;
  const double reduction = 1.0 - ilp2 / normal;
  EXPECT_GT(reduction, 0.25);  // the paper's 25..90% band
  EXPECT_LT(reduction, 0.99);
}

// The ILP-II reduction vs Normal falls strictly as r grows (finer tiles
// leave each solve less freedom), at both windows and in both tables.
TEST(Flow, FinerDissectionShrinksTheWin) {
  paper_shape::expect_finer_dissection_shrinks_the_win(
      layout::make_testcase_t2());
}

TEST(Flow, WeightedObjectiveImprovesWeightedMetric) {
  const FlowResult nonw = run_t2(32, 2, Objective::kNonWeighted);
  const FlowResult wtd = run_t2(32, 2, Objective::kWeighted);
  // Optimizing the weighted objective must not lose on the weighted metric.
  EXPECT_LE(find(wtd, Method::kIlp2).impact.weighted_delay_ps,
            find(nonw, Method::kIlp2).impact.weighted_delay_ps + 1e-9);
}

TEST(Flow, DeterministicAcrossRuns) {
  const FlowResult a = run_t2(32, 4);
  const FlowResult b = run_t2(32, 4);
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (std::size_t i = 0; i < a.methods.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.methods[i].impact.delay_ps,
                     b.methods[i].impact.delay_ps);
    EXPECT_EQ(a.methods[i].placed, b.methods[i].placed);
  }
}

TEST(Flow, PlacementsAreDesignRuleClean) {
  const FlowResult res = run_t2(32, 4);
  const Layout l = layout::make_testcase_t2();
  std::vector<geom::Rect> wires;
  for (const auto& seg : l.segments()) wires.push_back(seg.rect());
  for (const auto& mr : res.methods) {
    // Buffer distance from wires.
    const auto& feats = mr.placement.features;
    for (std::size_t i = 0; i < feats.size(); i += 17) {  // sample
      const geom::Rect guard = feats[i].inflated(0.5 - 1e-9);
      for (const auto& w : wires)
        ASSERT_FALSE(geom::overlaps_strictly(guard, w));
    }
    // Features never overlap each other (full check via sort).
    std::vector<geom::Rect> sorted = feats;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.xlo != b.xlo ? a.xlo < b.xlo : a.ylo < b.ylo;
    });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].xlo == sorted[i - 1].xlo)
        ASSERT_GE(sorted[i].ylo, sorted[i - 1].yhi - 1e-9);
    }
  }
}

TEST(Flow, SlackModeIUnderplacesWhenCapacityShort) {
  // Mode I cannot use boundary gaps; with the fill budget computed from the
  // global inventory it must fall short somewhere on T2.
  const FlowResult res = run_t2(32, 2, Objective::kNonWeighted,
                                fill::SlackMode::kI);
  const auto& ilp2 = find(res, Method::kIlp2);
  EXPECT_GT(ilp2.shortfall, 0);
  EXPECT_LT(ilp2.placed, res.target.total_features);
}

TEST(Flow, SlackModeIIPlacesEverythingButScoresWorse) {
  const FlowResult ii =
      run_t2(32, 2, Objective::kNonWeighted, fill::SlackMode::kII);
  const FlowResult iii = run_t2(32, 2);
  // Mode II generally has enough capacity (boundary gaps included)...
  const auto& ii_ilp2 = find(ii, Method::kIlp2);
  EXPECT_LT(ii_ilp2.shortfall, ii.target.total_features / 20);
  // ...but optimizing against tile-local gap structure cannot beat the
  // globally-informed mode III on the true metric.
  EXPECT_GE(ii_ilp2.impact.delay_ps,
            find(iii, Method::kIlp2).impact.delay_ps - 1e-9);
}

TEST(Flow, RunsOnT1Coarse) {
  const Layout l = layout::make_testcase_t1();
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  const FlowResult res =
      run_pil_fill_flow(l, config, {Method::kNormal, Method::kIlp2});
  EXPECT_GT(res.target.total_features, 1000);
  EXPECT_LT(find(res, Method::kIlp2).impact.delay_ps,
            find(res, Method::kNormal).impact.delay_ps);
}

TEST(Flow, VerticalLayerViaTranspositionIsExactlyEquivalent) {
  // The entire flow is direction-agnostic: on the transposed layout (whose
  // layer routes vertically) every deterministic method places the exact
  // transpose of its fill and scores it bit for bit the same, at every
  // dissection and objective. Normal draws its sites from per-tile RNG
  // streams keyed by the real tile id, in each frame's column order, so
  // its delay is a separate random draw; only its per-tile counts agree.
  const Layout l = layout::make_testcase_t2();
  const Layout lt = layout::transposed(l);
  auto transposed_sorted = [](const std::vector<geom::Rect>& rects,
                              bool transpose) {
    std::vector<std::array<double, 4>> out;
    for (const geom::Rect& r : rects)
      out.push_back(transpose ? std::array{r.ylo, r.xlo, r.yhi, r.xhi}
                              : std::array{r.xlo, r.ylo, r.xhi, r.yhi});
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<geom::Rect> wires;
  for (const auto& seg : l.segments()) wires.push_back(seg.rect());
  for (const double window : {32.0, 20.0}) {
    for (const int r : {2, 4, 8}) {
      for (const Objective obj :
           {Objective::kNonWeighted, Objective::kWeighted}) {
        SCOPED_TRACE("W=" + std::to_string(window) + " r=" +
                     std::to_string(r) + " weighted=" +
                     std::to_string(obj == Objective::kWeighted));
        FlowConfig config;
        config.window_um = window;
        config.r = r;
        config.objective = obj;
        const FlowResult a = run_pil_fill_flow(l, config, kAllMethods);
        // Pin the per-tile requirements to the original run's (transposed
        // into the new tile frame) -- the MC targeter's random tie-breaking
        // is not itself transposition-invariant.
        const grid::Dissection dis(l.die(), window, r);
        const grid::Dissection dis_t(lt.die(), window, r);
        std::vector<int> flat_t(dis.num_tiles());
        FlowConfig config_t = config;
        config_t.required_per_tile.assign(dis_t.num_tiles(), 0);
        for (int flat = 0; flat < dis.num_tiles(); ++flat) {
          const grid::TileIndex t = dis.tile_unflat(flat);
          flat_t[flat] = dis_t.tile_flat({t.iy, t.ix});
          config_t.required_per_tile[flat_t[flat]] =
              a.target.features_per_tile[flat];
        }
        const FlowResult b = run_pil_fill_flow(lt, config_t, kAllMethods);

        EXPECT_EQ(a.total_capacity, b.total_capacity);
        ASSERT_EQ(a.methods.size(), b.methods.size());
        for (std::size_t i = 0; i < a.methods.size(); ++i) {
          const MethodResult& ma = a.methods[i];
          const MethodResult& mb = b.methods[i];
          SCOPED_TRACE(to_string(ma.method));
          EXPECT_EQ(ma.impact.unmapped, 0);
          EXPECT_EQ(mb.impact.unmapped, 0);
          std::vector<int> per_tile(dis_t.num_tiles(), 0);
          for (int flat = 0; flat < dis.num_tiles(); ++flat)
            per_tile[flat_t[flat]] = ma.placement.features_per_tile[flat];
          EXPECT_EQ(mb.placement.features_per_tile, per_tile);
          if (ma.method == Method::kNormal) continue;
          EXPECT_EQ(transposed_sorted(mb.placement.features, true),
                    transposed_sorted(ma.placement.features, false));
          EXPECT_EQ(ma.impact.delay_ps, mb.impact.delay_ps);
          EXPECT_EQ(ma.impact.weighted_delay_ps, mb.impact.weighted_delay_ps);
          EXPECT_EQ(ma.impact.exact_sink_delay_ps,
                    mb.impact.exact_sink_delay_ps);
        }
        // Geometry: every feature of the vertical-layer run, transposed
        // back, must respect the buffer distance to the original wires.
        const auto& fb = find(b, Method::kIlp2).placement.features;
        ASSERT_FALSE(fb.empty());
        for (std::size_t i = 0; i < fb.size(); i += 11) {
          const geom::Rect back{fb[i].ylo, fb[i].xlo, fb[i].yhi, fb[i].xhi};
          EXPECT_TRUE(l.die().contains(back));
          const geom::Rect guard = back.inflated(0.5 - 1e-9);
          for (const auto& w : wires)
            ASSERT_FALSE(geom::overlaps_strictly(guard, w));
        }
      }
    }
  }
}

TEST(Flow, GroundedFillCostsFarMoreThanFloating) {
  FlowConfig floating;
  floating.window_um = 32;
  floating.r = 2;
  FlowConfig grounded = floating;
  grounded.style = cap::FillStyle::kGrounded;
  const Layout l = layout::make_testcase_t2();
  const FlowResult f =
      run_pil_fill_flow(l, floating, {Method::kNormal, Method::kGreedy});
  const FlowResult g =
      run_pil_fill_flow(l, grounded, {Method::kNormal, Method::kGreedy});
  // Same density control...
  EXPECT_EQ(find(f, Method::kGreedy).placed, find(g, Method::kGreedy).placed);
  // ...but grounded fill is dramatically more expensive, for both methods.
  EXPECT_GT(find(g, Method::kNormal).impact.delay_ps,
            5 * find(f, Method::kNormal).impact.delay_ps);
  EXPECT_GT(find(g, Method::kGreedy).impact.delay_ps,
            5 * find(f, Method::kGreedy).impact.delay_ps);
  // Timing-awareness still helps under the grounded model.
  EXPECT_LT(find(g, Method::kGreedy).impact.delay_ps,
            find(g, Method::kNormal).impact.delay_ps);
}

TEST(Flow, SwitchFactorScalesLinearly) {
  FlowConfig one;
  one.window_um = 32;
  one.r = 4;
  FlowConfig two = one;
  two.switch_factor = 2.0;
  const Layout l = layout::make_testcase_t2();
  const FlowResult a = run_pil_fill_flow(l, one, {Method::kIlp2});
  const FlowResult b = run_pil_fill_flow(l, two, {Method::kIlp2});
  EXPECT_NEAR(b.methods[0].impact.delay_ps,
              2 * a.methods[0].impact.delay_ps, 1e-9);
  EXPECT_NEAR(b.methods[0].impact.exact_sink_delay_ps,
              2 * a.methods[0].impact.exact_sink_delay_ps, 1e-9);
}

TEST(Flow, TwoLayerLayoutFillsBothLayers) {
  layout::SyntheticLayoutConfig cfg = layout::testcase_t2_config();
  cfg.separate_branch_layer = true;
  const Layout l = layout::generate_synthetic_layout(cfg);
  ASSERT_EQ(l.num_layers(), 2u);

  // m3 (horizontal) and m4 (vertical, exercised via transposition).
  for (const layout::LayerId layer : {0, 1}) {
    FlowConfig config;
    config.window_um = 32;
    config.r = 2;
    config.layer = layer;
    const FlowResult res =
        run_pil_fill_flow(l, config, {Method::kNormal, Method::kIlp2});
    EXPECT_GT(res.target.total_features, 0) << "layer " << layer;
    EXPECT_EQ(find(res, Method::kIlp2).impact.unmapped, 0);
    EXPECT_LE(find(res, Method::kIlp2).impact.delay_ps,
              find(res, Method::kNormal).impact.delay_ps) << "layer " << layer;
  }

  // With branches moved off m3, the horizontal layer has more usable slack
  // than in the single-layer version of the same recipe.
  const Layout single = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  const FlowResult two = run_pil_fill_flow(l, config, {Method::kGreedy});
  const FlowResult one = run_pil_fill_flow(single, config, {Method::kGreedy});
  EXPECT_GT(two.total_capacity, one.total_capacity);
}

TEST(Flow, MacroBlockagesAreRespectedEndToEnd) {
  layout::SyntheticLayoutConfig cfg = layout::testcase_t2_config();
  cfg.num_macros = 4;
  const Layout l = layout::generate_synthetic_layout(cfg);
  ASSERT_FALSE(l.blockages().empty());

  FlowConfig config;
  config.window_um = 32;
  config.r = 4;
  const FlowResult res =
      run_pil_fill_flow(l, config, {Method::kNormal, Method::kIlp2});

  // Every placed feature keeps the buffer distance from every macro, and
  // the independent checker agrees.
  for (const auto& mr : res.methods) {
    for (const auto& b : l.blockages()) {
      const geom::Rect guard = b.rect.inflated(config.rules.buffer_um - 1e-9);
      for (const auto& f : mr.placement.features)
        ASSERT_FALSE(geom::overlaps_strictly(f, guard))
            << to_string(mr.method);
    }
    const grid::Dissection dis(l.die(), config.window_um, config.r);
    fill::CheckOptions opt;
    const fill::CheckReport report =
        fill::check_fill(l, mr.placement.features, opt, &dis);
    EXPECT_TRUE(report.clean())
        << (report.violations.empty() ? ""
                                      : report.violations[0].describe());
  }

  // Metal macros count toward density: the before-stats must exceed the
  // same recipe without macros.
  layout::SyntheticLayoutConfig bare = cfg;
  bare.num_macros = 0;
  const Layout l2 = layout::generate_synthetic_layout(bare);
  const FlowResult res2 = run_pil_fill_flow(l2, config, {Method::kGreedy});
  EXPECT_GT(res.density_before.max_density, res2.density_before.max_density);
}

TEST(Flow, RejectsBadConfigurations) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 0;  // invalid window
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
  config = FlowConfig{};
  config.r = 0;
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
  config = FlowConfig{};
  config.layer = 9;  // no such layer
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
  config = FlowConfig{};
  config.window_um = 500;  // larger than the die
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
  config = FlowConfig{};
  config.required_per_tile = {1, 2, 3};  // wrong size
  config.window_um = 32;
  config.r = 2;
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
  config = FlowConfig{};
  config.rules.feature_um = -1;
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kGreedy}), Error);
}

TEST(Flow, RequiredPerTileOverrideIsHonoredExactly) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  const FlowResult base = run_pil_fill_flow(l, config, {Method::kGreedy});
  // Halve every tile's requirement and replay.
  FlowConfig half = config;
  half.required_per_tile = base.target.features_per_tile;
  for (auto& m : half.required_per_tile) m /= 2;
  const FlowResult res = run_pil_fill_flow(l, half, {Method::kGreedy});
  EXPECT_EQ(res.methods[0].placement.features_per_tile,
            half.required_per_tile);
  EXPECT_EQ(res.methods[0].shortfall, 0);
  EXPECT_LT(res.methods[0].impact.delay_ps, base.methods[0].impact.delay_ps);
}

TEST(Flow, TargetEngineSelection) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  long long features[3];
  double min_density[3];
  int idx = 0;
  for (const TargetEngine engine :
       {TargetEngine::kMonteCarlo, TargetEngine::kMinVarLp,
        TargetEngine::kMinFillLp}) {
    FlowConfig c = config;
    c.target_engine = engine;
    const FlowResult res = run_pil_fill_flow(l, c, {Method::kGreedy});
    features[idx] = res.target.total_features;
    min_density[idx] = res.methods[0].density_after.min_density;
    EXPECT_EQ(res.methods[0].shortfall, 0) << to_string(engine);
    ++idx;
  }
  // Min-fill uses the fewest features; min-var LP achieves the best floor.
  EXPECT_LE(features[2], features[1]);
  EXPECT_GE(min_density[1], min_density[0] - 0.01);
  EXPECT_GT(features[2], 0);
}

TEST(Flow, MultiLayerWrapperCoversEveryLayer) {
  layout::SyntheticLayoutConfig cfg = layout::testcase_t2_config();
  cfg.separate_branch_layer = true;
  const Layout l = layout::generate_synthetic_layout(cfg);
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  const auto results =
      run_multi_layer_pil_fill_flow(l, config, {Method::kIlp2});
  ASSERT_EQ(results.size(), l.num_layers());
  for (const auto& res : results) {
    EXPECT_GT(res.target.total_features, 0);
    EXPECT_EQ(res.methods[0].shortfall, 0);
    EXPECT_EQ(res.methods[0].impact.unmapped, 0);
  }
}

TEST(Flow, ThreadedSolvesAreDeterministic) {
  const Layout l = layout::make_testcase_t2();
  FlowConfig one;
  one.window_um = 32;
  one.r = 4;
  FlowConfig four = one;
  four.threads = 4;
  const std::vector<Method> methods = {Method::kNormal, Method::kIlp2,
                                       Method::kGreedy, Method::kConvex};
  const FlowResult a = run_pil_fill_flow(l, one, methods);
  const FlowResult b = run_pil_fill_flow(l, four, methods);
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (std::size_t i = 0; i < a.methods.size(); ++i) {
    EXPECT_EQ(a.methods[i].placed, b.methods[i].placed);
    EXPECT_DOUBLE_EQ(a.methods[i].impact.delay_ps,
                     b.methods[i].impact.delay_ps);
    ASSERT_EQ(a.methods[i].placement.features.size(),
              b.methods[i].placement.features.size());
    for (std::size_t f = 0; f < a.methods[i].placement.features.size(); ++f)
      EXPECT_EQ(a.methods[i].placement.features[f],
                b.methods[i].placement.features[f]);
  }
}

// T1 W=32 r=2 placements of every method, locked to fixed fingerprints:
// any change upstream -- prep, the instance resistance factors, a solver
// -- that moves a single fill feature fails here. If a change moves them on
// purpose, that is a semantics change: update the constants only then. The
// SimdFlow suite name is kept from the vector-kernel tests these came from,
// so the test IDs stay stable.
void expect_golden_fingerprints(int threads) {
  const std::vector<std::pair<Method, std::uint64_t>> golden = {
      {Method::kNormal, 0x9344724b16462801ULL},
      {Method::kIlp1, 0x6d89bed1552d3dfaULL},
      {Method::kIlp2, 0xb5a39d1911a26484ULL},
      {Method::kGreedy, 0x724e17cfdb16bf6dULL},
      {Method::kConvex, 0x673f09fd8675e23bULL},
  };
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  config.threads = threads;
  const FlowResult res =
      run_pil_fill_flow(layout::make_testcase_t1(), config, kAllMethods);
  for (const auto& [method, want] : golden)
    EXPECT_EQ(service::placement_fingerprint(
                  find(res, method).placement.features),
              want)
        << to_string(method) << " threads=" << threads;
}

TEST(SimdFlow, GoldenSeedFingerprintsLocked) { expect_golden_fingerprints(1); }

TEST(SimdFlow, GoldenFingerprintsThreadInvariant) {
  expect_golden_fingerprints(4);
}

TEST(Flow, CriticalityShiftsFillOffCriticalNets) {
  // Mark one heavily-coupled net as ultra-critical: the weighted ILP-II run
  // must charge that net less coupling than the uniform run.
  const Layout l = layout::make_testcase_t2();
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  config.objective = Objective::kWeighted;

  FillSession session(l, config);
  const FlowResult base = session.solve({Method::kIlp2});
  // Find the net the baseline charges most, via the budgeted allocator's
  // accounting (run with infinite budgets just to get per-net usage).
  const BudgetedFlowResult acct =
      run_budgeted_pil_fill_flow(session, BudgetedConfig{});
  int worst = 0;
  for (std::size_t n = 1; n < acct.allocation.net_cap_used_ff.size(); ++n)
    if (acct.allocation.net_cap_used_ff[n] >
        acct.allocation.net_cap_used_ff[worst])
      worst = static_cast<int>(n);

  FlowConfig critical = config;
  critical.required_per_tile = base.target.features_per_tile;
  critical.net_criticality.assign(l.num_nets(), 1.0);
  critical.net_criticality[worst] = 1000.0;
  FillSession critical_session(l, critical);
  const FlowResult shifted = critical_session.solve({Method::kIlp2});

  // Score per-net coupling of both ILP-II placements with the evaluator's
  // column accounting: recompute from the budgeted allocator under the same
  // criticality to read out usage.
  const BudgetedFlowResult shifted_acct =
      run_budgeted_pil_fill_flow(critical_session, BudgetedConfig{});
  EXPECT_LT(shifted_acct.allocation.net_cap_used_ff[worst],
            acct.allocation.net_cap_used_ff[worst]);
  // Identical density control throughout.
  EXPECT_EQ(shifted.methods[0].placed, base.methods[0].placed);
}

TEST(Flow, EvaluatorSeesEveryPlacedFeature) {
  const FlowResult res = run_t2(20, 4);
  for (const auto& mr : res.methods) {
    EXPECT_EQ(mr.impact.unmapped, 0) << to_string(mr.method);
    EXPECT_EQ(mr.impact.features, mr.placed) << to_string(mr.method);
  }
}

/// ILP-II's objective (Eqs. 16-23, unscaled): sum over columns of
/// lut[n_k] * switch_factor * res_factor_k.
double ilp2_objective(const TileInstance& inst, const std::vector<int>& counts,
                      cap::ColumnCapLut& lut, const FlowConfig& config) {
  double sum = 0.0;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const InstanceColumn& c = inst.cols[k];
    if (!c.two_sided || counts[k] == 0) continue;
    const double res = config.objective == Objective::kWeighted
                           ? c.res_weighted
                           : c.res_nonweighted;
    sum += lut.table(c.d, c.num_sites)[counts[k]] * config.switch_factor * res;
  }
  return sum;
}

// Per-tile optimality certificate: the column cost is convex in the feature
// count, so the marginal-cost allocator is exact for ILP-II's objective. On
// every real T2 tile the two must therefore reach the same objective. Their
// counts may differ where the optimum is tied; their objectives may not.
TEST(Certificate, Ilp2MatchesConvexOnEveryT2Tile) {
  const Layout l = layout::make_testcase_t2();
  const cap::CouplingModel model(l.layer(0).eps_r, l.layer(0).thickness_um);
  int tiles = 0;
  for (const double window : {32.0, 20.0}) {
    for (const int r : {2, 4, 8}) {
      for (const Objective obj :
           {Objective::kNonWeighted, Objective::kWeighted}) {
        FlowConfig config;
        config.window_um = window;
        config.r = r;
        config.objective = obj;
        const FillSession session(l, config);
        cap::ColumnCapLut lut(model, config.rules.feature_um);
        SolverContext ctx;
        ctx.model = &model;
        ctx.lut = &lut;
        ctx.rules = config.rules;
        ctx.objective = obj;
        ctx.ilp = config.ilp;
        ctx.switch_factor = config.switch_factor;
        Rng rng(1);
        for (const TileInstance& inst : session.instances_snapshot()) {
          const TileSolveResult ilp2 =
              solve_tile(Method::kIlp2, inst, ctx, rng);
          const TileSolveResult convex =
              solve_tile(Method::kConvex, inst, ctx, rng);
          ASSERT_EQ(ilp2.ilp_status, ilp::IlpStatus::kOptimal)
              << "tile " << inst.tile_flat;
          const double a = ilp2_objective(inst, ilp2.counts, lut, config);
          const double b = ilp2_objective(inst, convex.counts, lut, config);
          EXPECT_LE(std::fabs(a - b), 1e-12 * std::max(1.0, std::fabs(a)))
              << "W=" << window << " r=" << r << " obj=" << static_cast<int>(obj)
              << " tile " << inst.tile_flat << ": ILP-II " << a
              << ", Convex " << b;
          ++tiles;
        }
      }
    }
  }
  EXPECT_GT(tiles, 0);
}

/// Every ILP-I and ILP-II tile search on T2, pinned: per tile, the counts
/// and the branch-and-bound effort (nodes, LP solves, simplex iterations)
/// hash to the value recorded for each table row, both objectives folded
/// in. A change to the simplex or the search that moves any pivot moves
/// an iteration count, and with it the hash.
TEST(Solvers, TileSearchIsPinned) {
  struct Row {
    double window;
    int r;
    std::uint64_t ilp1, ilp2;
  };
  const Row rows[] = {
      {32, 2, 0x278e98cbfd9e6633ull, 0xf2167faf90815617ull},
      {32, 4, 0x287326f81d603b9aull, 0x1597e22d2cc000d3ull},
      {32, 8, 0x96b109c377d9cd0aull, 0x3512fa5555b9843bull},
      {20, 2, 0x82a12c784c2b677dull, 0xe5a3268c3742476cull},
      {20, 4, 0xd128b98de8819f08ull, 0xb50c981b66756760ull},
      {20, 8, 0x1b70750064191425ull, 0x62812eb245b0fa0eull}};
  const Layout l = layout::make_testcase_t2();
  const cap::CouplingModel model(l.layer(0).eps_r, l.layer(0).thickness_um);
  for (const Row& row : rows) {
    std::uint64_t got[2] = {kFnv1a64Offset, kFnv1a64Offset};
    for (const Objective obj :
         {Objective::kNonWeighted, Objective::kWeighted}) {
      FlowConfig config;
      config.window_um = row.window;
      config.r = row.r;
      config.objective = obj;
      const FillSession session(l, config);
      cap::ColumnCapLut lut(model, config.rules.feature_um);
      SolverContext ctx;
      ctx.model = &model;
      ctx.lut = &lut;
      ctx.rules = config.rules;
      ctx.objective = obj;
      ctx.ilp = config.ilp;
      ctx.switch_factor = config.switch_factor;
      Rng rng(1);
      for (const TileInstance& inst : session.instances_snapshot()) {
        for (int k = 0; k < 2; ++k) {
          const TileSolveResult res = solve_tile(
              k == 0 ? Method::kIlp1 : Method::kIlp2, inst, ctx, rng);
          const long long effort[] = {inst.tile_flat, res.bb_nodes,
                                      res.lp_solves, res.simplex_iterations};
          got[k] = fnv1a64(
              std::string_view(reinterpret_cast<const char*>(effort),
                               sizeof effort),
              got[k]);
          got[k] = fnv1a64(
              std::string_view(reinterpret_cast<const char*>(res.counts.data()),
                               res.counts.size() * sizeof(int)),
              got[k]);
        }
      }
    }
    EXPECT_EQ(got[0], row.ilp1) << "ILP-I W=" << row.window << " r=" << row.r
                                << ": 0x" << std::hex << got[0];
    EXPECT_EQ(got[1], row.ilp2) << "ILP-II W=" << row.window << " r=" << row.r
                                << ": 0x" << std::hex << got[1];
  }
}

}  // namespace
}  // namespace pil::pilfill

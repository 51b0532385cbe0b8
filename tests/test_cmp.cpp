// Tests for the CMP planarization model.

#include <gtest/gtest.h>

#include "pil/pil.hpp"

namespace pil::cmp {
namespace {

using grid::DensityMap;
using grid::Dissection;

CmpModelConfig small_config() {
  CmpModelConfig cfg;
  cfg.planarization_length_um = 16.0;
  cfg.cell_um = 4.0;
  return cfg;
}

TEST(CmpModel, UniformDensityIsPerfectlyFlat) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  m.add_rect(geom::Rect{0, 0, 64, 64});
  const CmpResult r = simulate_cmp(m, small_config());
  EXPECT_NEAR(r.max_thickness_range_um, 0.0, 1e-12);
  EXPECT_NEAR(r.rms_thickness_um, 0.0, 1e-12);
  for (const double e : r.effective_density) EXPECT_NEAR(e, 1.0, 1e-9);
}

TEST(CmpModel, EmptyLayoutIsFlatToo) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  const CmpResult r = simulate_cmp(m, small_config());
  EXPECT_NEAR(r.max_thickness_range_um, 0.0, 1e-12);
}

TEST(CmpModel, DensityStepCreatesTopography) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  m.add_rect(geom::Rect{0, 0, 32, 64});  // dense left half
  const CmpResult r = simulate_cmp(m, small_config());
  EXPECT_GT(r.max_thickness_range_um, 0.3);  // most of the 0.5 step survives
  // Thickness is high on the dense side, low on the sparse side.
  EXPECT_GT(r.at(0, r.ny / 2), r.at(r.nx - 1, r.ny / 2));
  // And monotone-ish across the boundary (the kernel smooths the step).
  EXPECT_GT(r.at(r.nx / 4, r.ny / 2), r.at(3 * r.nx / 4, r.ny / 2));
}

TEST(CmpModel, LongerPlanarizationLengthSmoothsMore) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  m.add_rect(geom::Rect{28, 28, 36, 36});  // small dense island
  CmpModelConfig short_pad = small_config();
  short_pad.planarization_length_um = 8.0;
  CmpModelConfig long_pad = small_config();
  long_pad.planarization_length_um = 48.0;
  const CmpResult a = simulate_cmp(m, short_pad);
  const CmpResult b = simulate_cmp(m, long_pad);
  EXPECT_GT(a.max_thickness_range_um, b.max_thickness_range_um);
}

TEST(CmpModel, EffectiveDensityConservesMeanInBulk) {
  // Renormalized boundaries keep effective densities inside [min, max] of
  // the raw field.
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  m.add_rect(geom::Rect{0, 0, 32, 64});
  const CmpResult r = simulate_cmp(m, small_config());
  for (const double e : r.effective_density) {
    EXPECT_GE(e, -1e-9);
    EXPECT_LE(e, 1.0 + 1e-9);
  }
}

TEST(CmpModel, FillFlattensRealLayout) {
  // The headline physical claim: min-var fill reduces post-CMP topography.
  const layout::Layout l = layout::make_testcase_t2();
  const Dissection dis(l.die(), 32.0, 4);
  DensityMap before(dis);
  before.add_layer_metal(l, 0);

  pilfill::FlowConfig config;
  config.window_um = 32;
  config.r = 4;
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(l, config, {pilfill::Method::kIlp2});
  DensityMap after = before;
  for (const auto& f : res.methods[0].placement.features) after.add_rect(f);

  CmpModelConfig cfg;
  cfg.planarization_length_um = 24.0;
  const CmpResult rb = simulate_cmp(before, cfg);
  const CmpResult ra = simulate_cmp(after, cfg);
  EXPECT_LT(ra.max_thickness_range_um, rb.max_thickness_range_um);
  EXPECT_LT(ra.rms_thickness_um, rb.rms_thickness_um);
}

// -------------------------------------------------------------- erosion ----

TEST(Erosion, NoDeficitNoDelayChange) {
  // A layout at the reference density everywhere: erosion costs nothing.
  const layout::Layout l = layout::make_testcase_t2();
  const auto trees = rctree::build_all_trees(l);
  const grid::Dissection dis(l.die(), 32.0, 2);
  grid::DensityMap m(dis);
  m.add_rect(l.die());  // density 1 everywhere
  const CmpResult cmp = simulate_cmp(m);
  ErosionModelConfig cfg;
  cfg.reference_density = 0.35;
  const ErosionReport r = erosion_delay_report(trees, l, cmp, cfg);
  EXPECT_NEAR(r.total_delay_increase_ps, 0.0, 1e-9);
  for (std::size_t n = 0; n < trees.size(); ++n)
    EXPECT_NEAR(r.eroded_worst_delay_ps[n], r.nominal_worst_delay_ps[n],
                1e-9);
}

TEST(Erosion, SparseLayoutPaysDelay) {
  const layout::Layout l = layout::make_testcase_t2();
  const auto trees = rctree::build_all_trees(l);
  const grid::Dissection dis(l.die(), 32.0, 2);
  grid::DensityMap wires(dis);
  wires.add_layer_metal(l, 0);  // real (sparse) densities
  const CmpResult cmp = simulate_cmp(wires);
  const ErosionReport r = erosion_delay_report(trees, l, cmp);
  EXPECT_GT(r.total_delay_increase_ps, 0.0);
  EXPECT_GT(r.worst_net_increase_ps, 0.0);
  for (std::size_t n = 0; n < trees.size(); ++n)
    EXPECT_GE(r.eroded_worst_delay_ps[n],
              r.nominal_worst_delay_ps[n] - 1e-12);
}

TEST(Erosion, FillReducesErosionDelay) {
  // The counter-effect: raising density via fill reduces over-polish and
  // therefore the erosion-induced delay.
  const layout::Layout l = layout::make_testcase_t2();
  const auto trees = rctree::build_all_trees(l);
  const grid::Dissection dis(l.die(), 32.0, 4);
  grid::DensityMap before(dis);
  before.add_layer_metal(l, 0);

  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(l, flow, {pilfill::Method::kIlp2});
  grid::DensityMap after = before;
  for (const auto& f : res.methods[0].placement.features) after.add_rect(f);

  const ErosionReport rb = erosion_delay_report(trees, l, simulate_cmp(before));
  const ErosionReport ra = erosion_delay_report(trees, l, simulate_cmp(after));
  EXPECT_LT(ra.total_delay_increase_ps, rb.total_delay_increase_ps);
}

TEST(Erosion, LossIsClampedForExtremeParameters) {
  const layout::Layout l = layout::make_testcase_t2();
  const auto trees = rctree::build_all_trees(l);
  const grid::Dissection dis(l.die(), 32.0, 2);
  grid::DensityMap empty(dis);  // zero density: maximum deficit
  const CmpResult cmp = simulate_cmp(empty);
  ErosionModelConfig cfg;
  cfg.loss_coeff_um = 100.0;  // absurd; must clamp at max_loss_fraction
  const ErosionReport r = erosion_delay_report(trees, l, cmp, cfg);
  for (std::size_t n = 0; n < trees.size(); ++n) {
    // thickness/(thickness - 0.5*thickness) = 2x resistance at the clamp;
    // delay growth is bounded accordingly (driver resistance dilutes it).
    EXPECT_LE(r.eroded_worst_delay_ps[n],
              2.0 * r.nominal_worst_delay_ps[n] + 1e-9);
  }
  ErosionModelConfig bad;
  bad.max_loss_fraction = 1.5;
  EXPECT_THROW(erosion_delay_report(trees, l, cmp, bad), Error);
}

TEST(CmpModel, AsciiRendering) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  m.add_rect(geom::Rect{0, 0, 32, 64});
  const CmpResult r = simulate_cmp(m, small_config());
  const std::string art = render_thickness_ascii(r);
  ASSERT_EQ(art.size(), static_cast<std::size_t>(r.ny) * (r.nx + 1));
  // Dense (thick) left edge renders darker than the sparse right edge.
  EXPECT_EQ(art[0], '@');
  EXPECT_EQ(art[r.nx - 1], ' ');
}

TEST(CmpModel, RejectsBadConfig) {
  const Dissection dis(geom::Rect{0, 0, 64, 64}, 16.0, 2);
  DensityMap m(dis);
  CmpModelConfig cfg;
  cfg.cell_um = 0;
  EXPECT_THROW(simulate_cmp(m, cfg), Error);
  cfg = CmpModelConfig{};
  cfg.planarization_length_um = -1;
  EXPECT_THROW(simulate_cmp(m, cfg), Error);
}

}  // namespace
}  // namespace pil::cmp

// Tests for the incremental FillSession engine: edit-equivalence against
// the one-shot flow (bit-identical results after every edit), cache reuse
// across solves, dirty-set accounting, config validation, and rollback on
// invalid edits. The property tests sweep threads x metrics because both
// must be invisible to results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "paper_shape.hpp"
#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

Layout small_layout() {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 40;
  cfg.seed = 5;
  return layout::generate_synthetic_layout(cfg);
}

/// A 96 um two-layer layout whose m4 routes vertically (a transposed scan).
Layout branch_layout() {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 30;
  cfg.seed = 9;
  cfg.separate_branch_layer = true;
  return layout::generate_synthetic_layout(cfg);
}

FlowConfig small_config(int threads = 1) {
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  config.threads = threads;
  return config;
}

/// Random valid edits against a session: perpendicular stubs tapping the
/// centerline of pre-existing segments on the fill layer (T-junctions are
/// split by the RC extractor, so connectivity holds), removals of
/// previously added stubs (leaves: nothing taps them), and moves of added
/// stubs along the parent's axis (the tap point stays on the centerline).
class EditScript {
 public:
  EditScript(const Layout& l, layout::LayerId layer, std::uint64_t seed)
      : rng_(seed) {
    const bool vertical =
        l.layer(layer).preferred_direction == layout::Orientation::kVertical;
    for (const auto& seg : l.segments()) {
      if (seg.layer != layer || seg.removed()) continue;
      const bool seg_vertical =
          seg.orientation() == layout::Orientation::kVertical;
      if (seg_vertical != vertical) continue;
      if (seg.length() < 6.0) continue;
      parents_.push_back(seg);
    }
    die_ = l.die();
  }

  bool can_add() const { return !parents_.empty(); }

  WireEdit next(int step) {
    if (!stubs_.empty() && step % 5 == 3) {
      const std::size_t i = pick(stubs_.size());
      const Stub s = stubs_[i];
      stubs_.erase(stubs_.begin() + static_cast<std::ptrdiff_t>(i));
      return WireEdit::remove_segment(s.sid);
    }
    if (!stubs_.empty() && step % 5 == 4) {
      Stub& s = stubs_[pick(stubs_.size())];
      const double lo = s.tap_lo - s.tap, hi = s.tap_hi - s.tap;
      const double d = uniform(lo, hi);
      s.tap += d;
      return s.along_x ? WireEdit::move_segment(s.sid, d, 0.0)
                       : WireEdit::move_segment(s.sid, 0.0, d);
    }
    const layout::WireSegment& parent = parents_[pick(parents_.size())];
    const bool along_x =
        parent.orientation() == layout::Orientation::kHorizontal;
    Stub s;
    s.along_x = along_x;
    s.tap_lo = (along_x ? parent.a.x : parent.a.y) + 1.0;
    s.tap_hi = (along_x ? parent.b.x : parent.b.y) - 1.0;
    s.tap = uniform(s.tap_lo, s.tap_hi);
    pending_ = s;
    const double len = uniform(1.5, 4.0);
    const double cross = along_x ? parent.a.y : parent.a.x;
    const double lim = along_x ? die_.yhi : die_.xhi;
    const double tip =
        cross + len + 1.0 < lim ? cross + len : cross - len;
    const geom::Point a =
        along_x ? geom::Point{s.tap, cross} : geom::Point{cross, s.tap};
    const geom::Point b =
        along_x ? geom::Point{s.tap, tip} : geom::Point{tip, s.tap};
    return WireEdit::add_segment(parent.net, a, b, 0.4);
  }

  /// Record the id of the stub created by the last kAddSegment edit.
  void stub_added(layout::SegmentId sid) {
    pending_.sid = sid;
    stubs_.push_back(pending_);
  }

 private:
  struct Stub {
    layout::SegmentId sid = layout::kInvalidSegment;
    bool along_x = true;
    double tap = 0.0;           ///< current tap coordinate on the parent
    double tap_lo = 0.0, tap_hi = 0.0;  ///< valid tap range
  };

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }

  std::mt19937_64 rng_;
  std::vector<layout::WireSegment> parents_;
  std::vector<Stub> stubs_;
  Stub pending_;
  geom::Rect die_;
};

/// The tentpole property: after every edit the session's solve() is
/// bit-identical (timings aside) to a from-scratch flow on the same
/// (edited) layout.
void check_edit_equivalence(const Layout& l, const FlowConfig& config,
                            const std::vector<Method>& methods, int num_edits,
                            std::uint64_t seed) {
  FillSession session(l, config);
  EditScript script(session.layout(), config.layer, seed);
  ASSERT_TRUE(script.can_add());

  FlowResult incremental = session.solve(methods);
  FlowResult fresh = run_pil_fill_flow(session.layout(), config, methods);
  ASSERT_TRUE(flow_results_equivalent(incremental, fresh))
      << "pristine session diverges from one-shot flow";

  for (int step = 0; step < num_edits; ++step) {
    const WireEdit edit = script.next(step);
    const EditStats es = session.apply_edit(edit);
    if (edit.kind == WireEdit::Kind::kAddSegment) script.stub_added(es.segment);
    EXPECT_LE(es.tiles_dirty, session.tiles_total());

    incremental = session.solve(methods);
    fresh = run_pil_fill_flow(session.layout(), config, methods);
    ASSERT_TRUE(flow_results_equivalent(incremental, fresh))
        << "divergence after edit " << step << " (kind "
        << static_cast<int>(edit.kind) << ", segment " << es.segment << ")";
  }
}

class SessionProperty
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SessionProperty, TwentyRandomEditsMatchFreshFlow) {
  const auto [threads, metrics] = GetParam();
  obs::metrics().clear();
  obs::set_metrics_enabled(metrics);
  check_edit_equivalence(small_layout(), small_config(threads),
                         {Method::kNormal, Method::kIlp2}, 20, 123);
  obs::set_metrics_enabled(false);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndMetrics, SessionProperty,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Bool()));

TEST(Session, VerticalLayerEditsMatchFreshFlow) {
  const Layout l = branch_layout();
  FlowConfig config = small_config(2);
  config.layer = l.find_layer("m4");
  ASSERT_NE(config.layer, layout::kInvalidLayer);
  check_edit_equivalence(l, config, {Method::kNormal}, 8, 77);
}

TEST(Session, SolverModeTwoEditsMatchFreshFlow) {
  // Modes I/II rescan their own columns on each edit: the session keeps a
  // second scanner for them, and its rescan decides which instances to
  // rebuild. Both modes, on a horizontal and a vertical layer.
  const Layout branch = branch_layout();
  for (const fill::SlackMode mode : {fill::SlackMode::kII,
                                     fill::SlackMode::kI}) {
    SCOPED_TRACE(fill::to_string(mode));
    FlowConfig config = small_config(1);
    config.solver_mode = mode;
    check_edit_equivalence(small_layout(), config,
                           {Method::kGreedy, Method::kNormal}, 6, 41);
    config.layer = branch.find_layer("m4");
    check_edit_equivalence(branch, config, {Method::kGreedy, Method::kNormal},
                           6, 41);
  }
}

TEST(Session, PinnedRequirementsSkipRetargeting) {
  const Layout l = small_layout();
  FlowConfig config = small_config(1);
  const FlowResult probe = run_pil_fill_flow(l, config, {});
  config.required_per_tile = probe.target.features_per_tile;

  FillSession session(l, config);
  EditScript script(session.layout(), config.layer, 3);
  ASSERT_TRUE(script.can_add());
  for (int step = 0; step < 5; ++step) {
    const WireEdit edit = script.next(step);
    const EditStats es = session.apply_edit(edit);
    if (edit.kind == WireEdit::Kind::kAddSegment) script.stub_added(es.segment);
    // The fill spec is pinned, so an edit can never re-target a tile; the
    // dirty set is purely geometric.
    EXPECT_EQ(es.tiles_retargeted, 0);
  }
  const FlowResult incremental = session.solve({Method::kIlp2});
  const FlowResult fresh =
      run_pil_fill_flow(session.layout(), config, {Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(incremental, fresh));
}

TEST(Session, RepeatedSolvesServeFromCache) {
  FillSession session(small_layout(), small_config(1));
  const FlowResult first = session.solve({Method::kIlp2});
  const long long resolved_once = session.stats().tiles_resolved;
  EXPECT_GT(resolved_once, 0);
  const FlowResult second = session.solve({Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(first, second));
  EXPECT_EQ(session.stats().tiles_resolved, resolved_once);  // all cached
  EXPECT_EQ(session.stats().tiles_reused, resolved_once);
  // A different method has its own cache.
  session.solve({Method::kNormal});
  EXPECT_EQ(session.stats().tiles_resolved, 2 * resolved_once);
}

TEST(Session, CountScoringMatchesRectScoring) {
  // Under SlackColumn-III solve() scores each method from its cached
  // per-column counts; binning the assembled rectangles back into the
  // global columns must give the same impact, bit for bit. T2, T2 with
  // macro blockages, and T2's vertical branch layer (the transposed scan),
  // on every table row and both objectives.
  layout::SyntheticLayoutConfig macros = layout::testcase_t2_config();
  macros.num_macros = 2;
  layout::SyntheticLayoutConfig branch = layout::testcase_t2_config();
  branch.separate_branch_layer = true;
  const Layout branch_layout = layout::generate_synthetic_layout(branch);
  const std::vector<std::pair<Layout, layout::LayerId>> inputs = {
      {layout::make_testcase_t2(), 0},
      {layout::generate_synthetic_layout(macros), 0},
      {branch_layout, branch_layout.find_layer("m4")}};
  ASSERT_EQ(inputs[2].second, 1);
  ASSERT_FALSE(inputs[1].first.blockages().empty());

  int cases = 0;
  for (const auto& [l, layer] : inputs)
    for (const Objective obj : paper_shape::kObjectives)
      for (const double window : paper_shape::kWindows)
        for (const int r : paper_shape::kRs) {
          FlowConfig config;
          config.window_um = window;
          config.r = r;
          config.objective = obj;
          config.layer = layer;
          FillSession session(l, config);
          const FlowResult res = session.solve(paper_shape::kAllMethods);
          for (const MethodResult& mr : res.methods) {
            const std::string row = paper_shape::row_name(obj, window, r) +
                                    " layer " + std::to_string(layer) + " " +
                                    to_string(mr.method);
            const DelayImpact binned =
                session.evaluator().evaluate_rects(mr.placement.features);
            EXPECT_EQ(mr.impact.delay_ps, binned.delay_ps) << row;
            EXPECT_EQ(mr.impact.weighted_delay_ps, binned.weighted_delay_ps)
                << row;
            EXPECT_EQ(mr.impact.exact_sink_delay_ps,
                      binned.exact_sink_delay_ps)
                << row;
            EXPECT_EQ(mr.impact.features, binned.features) << row;
            EXPECT_EQ(mr.impact.features,
                      static_cast<long long>(mr.placement.features.size()))
                << row;
            EXPECT_EQ(mr.impact.unmapped, 0) << row;
            EXPECT_EQ(binned.unmapped, 0) << row;
            ++cases;
          }
        }
  EXPECT_EQ(cases, 180);
}

TEST(Session, ScorerTreesAndDensityFollowEdits) {
  // evaluator(), trees(), pieces() and density_with() read the session's
  // current state: after edits they agree with a fresh session on the
  // edited layout, and density_with(placement) is the method's
  // density_after. The evaluator is built once, so a reference taken
  // before the first edit still scores against the edited layout.
  FillSession session(small_layout(), small_config(1));
  const DelayImpactEvaluator& scorer = session.evaluator();
  EditScript script(session.layout(), session.config().layer, 11);
  const WireEdit add = script.next(0);
  ASSERT_EQ(add.kind, WireEdit::Kind::kAddSegment);
  const EditStats added = session.apply_edit(add);
  script.stub_added(added.segment);
  const WireEdit remove = script.next(3);
  ASSERT_EQ(remove.kind, WireEdit::Kind::kRemoveSegment);
  session.apply_edit(remove);
  session.apply_edit(script.next(5));  // a second stub stays in the layout
  const FlowResult res = session.solve({Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  const FillSession fresh(session.layout(), session.config());

  EXPECT_EQ(&scorer, &session.evaluator());
  const DelayImpact scored = scorer.evaluate_rects(mr.placement.features);
  const DelayImpact fresh_scored =
      fresh.evaluator().evaluate_rects(mr.placement.features);
  EXPECT_EQ(scored.delay_ps, mr.impact.delay_ps);
  EXPECT_EQ(scored.delay_ps, fresh_scored.delay_ps);
  EXPECT_EQ(scored.weighted_delay_ps, fresh_scored.weighted_delay_ps);
  EXPECT_EQ(scored.exact_sink_delay_ps, fresh_scored.exact_sink_delay_ps);
  EXPECT_EQ(scored.unmapped, 0);
  const int nets = static_cast<int>(session.layout().num_nets());
  EXPECT_EQ(scorer.per_net_coupling_ff(mr.placement.features, nets),
            fresh.evaluator().per_net_coupling_ff(mr.placement.features,
                                                  nets));

  // The edited net's pieces were spliced in place: the flattened array
  // equals a fresh flatten of the edited layout's trees.
  ASSERT_EQ(session.pieces().size(), fresh.pieces().size());
  for (std::size_t i = 0; i < session.pieces().size(); ++i) {
    const rctree::WirePiece& a = session.pieces()[i];
    const rctree::WirePiece& b = fresh.pieces()[i];
    EXPECT_EQ(a.segment, b.segment) << "piece " << i;
    EXPECT_EQ(a.net, b.net) << "piece " << i;
    EXPECT_EQ(a.up, b.up) << "piece " << i;
    EXPECT_EQ(a.down, b.down) << "piece " << i;
    EXPECT_EQ(a.upstream_res, b.upstream_res) << "piece " << i;
    EXPECT_EQ(a.downstream_sinks, b.downstream_sinks) << "piece " << i;
    EXPECT_EQ(a.offpath_res_sum, b.offpath_res_sum) << "piece " << i;
  }

  ASSERT_EQ(session.trees().size(), session.layout().num_nets());
  ASSERT_EQ(fresh.trees().size(), session.layout().num_nets());
  for (std::size_t n = 0; n < session.trees().size(); ++n)
    EXPECT_EQ(session.trees()[n].total_cap_ff(),
              fresh.trees()[n].total_cap_ff())
        << "net " << n;

  const grid::DensityStats after =
      session.density_with(mr.placement.features).stats();
  EXPECT_EQ(after.min_density, mr.density_after.min_density);
  EXPECT_EQ(after.max_density, mr.density_after.max_density);
  EXPECT_EQ(session.density_with({}).stats().min_density,
            session.wires().stats().min_density);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Edits, each followed by a solve of the methods `plan` names for it (none
/// for an empty entry), so each method sits out runs of edits; the first
/// entry solves the pristine session. After every solve, each method's
/// density_after equals density_with(its placement) bit for bit, and the
/// result equals a fresh flow's.
void check_density_after(const Layout& l, const FlowConfig& config,
                         std::uint64_t seed) {
  const std::vector<std::vector<Method>> plan = {
      {Method::kGreedy, Method::kIlp2},
      {Method::kIlp2},
      {},
      {Method::kGreedy},
      {},
      {},
      {Method::kGreedy, Method::kIlp2}};
  FillSession session(l, config);
  EditScript script(session.layout(), config.layer, seed);
  ASSERT_TRUE(script.can_add());
  for (std::size_t step = 0; step < plan.size(); ++step) {
    if (step > 0) {
      const WireEdit edit = script.next(static_cast<int>(step) - 1);
      const EditStats es = session.apply_edit(edit);
      if (edit.kind == WireEdit::Kind::kAddSegment)
        script.stub_added(es.segment);
    }
    if (plan[step].empty()) continue;
    const FlowResult res = session.solve(plan[step]);
    for (const MethodResult& mr : res.methods) {
      const grid::DensityStats full =
          session.density_with(mr.placement.features).stats();
      EXPECT_TRUE(same_bits(mr.density_after.min_density, full.min_density) &&
                  same_bits(mr.density_after.max_density, full.max_density) &&
                  same_bits(mr.density_after.mean_density, full.mean_density))
          << "step " << step << " " << to_string(mr.method);
    }
    EXPECT_TRUE(flow_results_equivalent(
        res, run_pil_fill_flow(session.layout(), config, plan[step])))
        << "step " << step;
  }
}

TEST(Session, DensityAfterFollowsSkippedMethods) {
  // A solve recomputes a method's window density only on the tiles whose
  // area can have changed since that method's last solve. At W 32, r 2 a
  // feature reaches one tile past its own; on a 0.2 um tile (W 0.8, r 4),
  // under feature_um / 2, it reaches two.
  check_density_after(small_layout(), small_config(1), 17);

  layout::SyntheticLayoutConfig tiny;
  tiny.die_um = 24;
  tiny.num_nets = 6;
  tiny.min_trunk_um = 8;
  tiny.max_trunk_um = 16;
  tiny.max_stub_um = 4;
  tiny.seed = 5;
  FlowConfig fine = small_config(1);
  fine.window_um = 0.8;
  fine.r = 4;
  ASSERT_LT(fine.window_um / fine.r, fine.rules.feature_um / 2);
  check_density_after(layout::generate_synthetic_layout(tiny), fine, 17);
}

void expect_same_columns(const fill::SlackColumns& got,
                         const fill::SlackColumns& want,
                         const std::string& where) {
  ASSERT_EQ(got.columns().size(), want.columns().size()) << where;
  for (std::size_t k = 0; k < got.columns().size(); ++k) {
    const fill::SlackColumn& a = got.columns()[k];
    const fill::SlackColumn& b = want.columns()[k];
    EXPECT_TRUE(a.col_index == b.col_index && same_bits(a.x_lo, b.x_lo) &&
                same_bits(a.x_center, b.x_center) && a.below == b.below &&
                a.above == b.above && a.below_piece == b.below_piece &&
                a.above_piece == b.above_piece &&
                same_bits(a.gap_um, b.gap_um) &&
                same_bits(a.span_lo, b.span_lo) &&
                same_bits(a.span_hi, b.span_hi) && a.capacity == b.capacity)
        << where << ", column " << k;
  }
  ASSERT_EQ(got.num_tiles(), want.num_tiles()) << where;
  for (int t = 0; t < got.num_tiles(); ++t) {
    const auto& pa = got.tile_parts(t);
    const auto& pb = want.tile_parts(t);
    ASSERT_EQ(pa.size(), pb.size()) << where << ", tile " << t;
    for (std::size_t i = 0; i < pa.size(); ++i)
      EXPECT_TRUE(pa[i].column == pb[i].column &&
                  pa[i].first_site == pb[i].first_site &&
                  pa[i].num_sites == pb[i].num_sites)
          << where << ", tile " << t << " part " << i;
  }
  EXPECT_EQ(got.total_capacity(), want.total_capacity()) << where;
  EXPECT_EQ(got.transposed(), want.transposed()) << where;
  EXPECT_EQ(got.mode(), want.mode()) << where;
}

void check_columns_follow_edits(const Layout& l, const FlowConfig& config,
                                int num_edits, std::uint64_t seed) {
  FillSession session(l, config);
  const fill::SlackColumns& held = session.global_slack();
  const fill::SlackColumns& solver = session.solver_slack();
  EditScript script(session.layout(), config.layer, seed);
  ASSERT_TRUE(script.can_add());
  for (int step = 0; step < num_edits; ++step) {
    const WireEdit edit = script.next(step);
    const EditStats es = session.apply_edit(edit);
    if (edit.kind == WireEdit::Kind::kAddSegment) script.stub_added(es.segment);
    ASSERT_EQ(&held, &session.global_slack());
    ASSERT_EQ(&solver, &session.solver_slack());
    const std::vector<rctree::WirePiece> pieces =
        fill::flatten_pieces(rctree::build_all_trees(session.layout()));
    const std::string where = "edit " + std::to_string(step);
    expect_same_columns(
        held,
        fill::extract_slack_columns(session.layout(), session.dissection(),
                                    pieces, config.layer, config.rules,
                                    fill::SlackMode::kIII),
        where);
    expect_same_columns(
        solver,
        fill::extract_slack_columns(session.layout(), session.dissection(),
                                    pieces, config.layer, config.rules,
                                    config.solver_mode),
        where + ", solver columns");
  }
}

TEST(Session, SlackColumnsMatchFullExtraction) {
  // The session's columns are its scanners' own copies, rewritten in place
  // by each rescan: the references taken before the first edit stay
  // global_slack() and solver_slack(), and after every edit each equals a
  // full extraction of the edited layout in its mode -- every column field
  // bitwise, every tile part, the capacity. Every mode, on a horizontal
  // and a vertical layer.
  const Layout branch = branch_layout();
  for (const fill::SlackMode mode :
       {fill::SlackMode::kIII, fill::SlackMode::kI, fill::SlackMode::kII}) {
    SCOPED_TRACE(fill::to_string(mode));
    FlowConfig config = small_config(1);
    config.solver_mode = mode;
    check_columns_follow_edits(small_layout(), config, 20, 29);
    config.layer = branch.find_layer("m4");
    ASSERT_NE(config.layer, layout::kInvalidLayer);
    check_columns_follow_edits(branch, config, 8, 31);
  }
}

TEST(Session, RescanReportsEveryTileWhoseSitesMoved) {
  // A kept instance keeps its cached counts, so a solve re-adds its
  // features to density_after only when its sites moved. That rests on the
  // rescan's contract: a tile outside sites_changed covers, part by part,
  // the same site rectangles as before. Random moves of single pieces,
  // across and along their direction, checked against the columns held
  // before each rescan and against a full extraction after it, under the
  // mode-III and the mode-II scanner.
  const Layout l = small_layout();
  const FlowConfig config = small_config(1);
  const grid::Dissection dis(l.die(), config.window_um, config.r);
  for (const fill::SlackMode mode : {fill::SlackMode::kIII,
                                     fill::SlackMode::kII}) {
    SCOPED_TRACE(fill::to_string(mode));
    std::vector<rctree::WirePiece> pieces =
        fill::flatten_pieces(rctree::build_all_trees(l));
    std::vector<std::size_t> on_layer;
    for (std::size_t i = 0; i < pieces.size(); ++i)
      if (pieces[i].layer == config.layer) on_layer.push_back(i);
    fill::GlobalSlackScan scan(l, dis, config.layer, config.rules, mode);
    scan.build(pieces);
    std::mt19937_64 rng(7);
    int kept = 0, moved = 0;
    for (int step = 0; step < 40; ++step) {
      const fill::SlackColumns before = scan.columns();
      rctree::WirePiece& p = pieces[on_layer[rng() % on_layer.size()]];
      const geom::Rect old_rect = p.rect();
      const double d =
          std::uniform_real_distribution<double>(-0.8, 0.8)(rng);
      const bool across = rng() % 2 == 0;
      if ((p.orientation == layout::Orientation::kHorizontal) == across) {
        p.up.y += d;
        p.down.y += d;
      } else {
        p.up.x += d;
        p.down.x += d;
      }
      const fill::GlobalSlackScan::RescanResult rr =
          scan.rescan(pieces, {old_rect, p.rect()});
      const std::string where = "move " + std::to_string(step);
      expect_same_columns(
          scan.columns(),
          fill::extract_slack_columns(l, dis, pieces, config.layer,
                                      config.rules, mode),
          where);
      const fill::SlackColumns& after = scan.columns();
      for (int t = 0; t < after.num_tiles(); ++t) {
        if (std::binary_search(rr.sites_changed.begin(),
                               rr.sites_changed.end(), t)) {
          ++moved;
          continue;
        }
        if (std::binary_search(rr.touched_tiles.begin(),
                               rr.touched_tiles.end(), t))
          ++kept;
        const auto& old_parts = before.tile_parts(t);
        const auto& new_parts = after.tile_parts(t);
        ASSERT_EQ(old_parts.size(), new_parts.size())
            << where << ", tile " << t;
        for (std::size_t k = 0; k < old_parts.size(); ++k) {
          ASSERT_EQ(old_parts[k].first_site, new_parts[k].first_site)
              << where;
          ASSERT_EQ(old_parts[k].num_sites, new_parts[k].num_sites) << where;
          const fill::SlackColumn& a = before.columns()[old_parts[k].column];
          const fill::SlackColumn& b = after.columns()[new_parts[k].column];
          for (int i = 0; i < old_parts[k].num_sites; ++i) {
            const int site = old_parts[k].first_site + i;
            const geom::Rect ra = before.site_rect(a, site, config.rules);
            const geom::Rect rb = after.site_rect(b, site, config.rules);
            EXPECT_TRUE(
                same_bits(ra.xlo, rb.xlo) && same_bits(ra.ylo, rb.ylo) &&
                same_bits(ra.xhi, rb.xhi) && same_bits(ra.yhi, rb.yhi))
                << where << ", tile " << t << " part " << k << " site "
                << site;
          }
        }
      }
    }
    // Both outcomes occur, so the check above discriminates.
    EXPECT_GT(kept, 0);
    EXPECT_GT(moved, 0);
  }
}

TEST(Session, KeptInstanceWhoseSitesMovedRefreshesDensity) {
  // A 0.3 um stub on net a's end pierces the bottom of the one column at
  // its x: the column's sites shift up 0.05 um but keep their split, so
  // both tiles it crosses keep solver-equivalent instances and their
  // cached counts -- yet the site straddling y = 16 moves area from tile
  // row 0 into row 1. Every site is filled, so the session must refresh
  // row 1's density although no tile there is re-solved or re-wired.
  std::istringstream pld(
      "PLD 1\n"
      "DIE 0 0 96 96\n"
      "LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9\n"
      "NET a SOURCE 20 8 RDRV 200\n"
      "  SEG m3 20 8 75.5 8 0.5\n"
      "  SINK 75.5 8 CLOAD 2\n"
      "END\n"
      "NET b SOURCE 20 28.6 RDRV 200\n"
      "  SEG m3 20 28.6 80 28.6 0.5\n"
      "  SINK 80 28.6 CLOAD 2\n"
      "END\n");
  const Layout l = layout::read_pld(pld);
  FlowConfig config = small_config(1);
  const FillSession probe(l, config);
  config.required_per_tile.assign(probe.tiles_total(), 0);
  for (int t = 0; t < probe.tiles_total(); ++t)
    config.required_per_tile[t] = probe.global_slack().tile_capacity(t);

  FillSession session(l, config);
  const std::vector<Method> methods = {Method::kGreedy};
  const FlowResult before = session.solve(methods);
  const EditStats es = session.apply_edit(
      WireEdit::add_segment(0, {75.5, 8}, {75.5, 8.3}, 0.4));
  EXPECT_EQ(es.tiles_dirty, 0);
  const FlowResult res = session.solve(methods);
  const MethodResult& mr = res.methods[0];
  const std::vector<geom::Rect>& was = before.methods[0].placement.features;
  ASSERT_EQ(mr.placement.features.size(), was.size());
  EXPECT_FALSE(std::equal(was.begin(), was.end(),
                          mr.placement.features.begin(),
                          [](const geom::Rect& a, const geom::Rect& b) {
                            return same_bits(a.ylo, b.ylo);
                          }));
  const grid::DensityStats full =
      session.density_with(mr.placement.features).stats();
  EXPECT_TRUE(same_bits(mr.density_after.min_density, full.min_density) &&
              same_bits(mr.density_after.max_density, full.max_density) &&
              same_bits(mr.density_after.mean_density, full.mean_density));
  EXPECT_TRUE(flow_results_equivalent(
      res, run_pil_fill_flow(session.layout(), config, methods)));
}

TEST(Session, EditResolvesOnlyDirtyTiles) {
  FillSession session(small_layout(), small_config(1));
  session.solve({Method::kNormal});
  const long long before = session.stats().tiles_resolved;
  EditScript script(session.layout(), session.config().layer, 11);
  const WireEdit edit = script.next(0);
  ASSERT_EQ(edit.kind, WireEdit::Kind::kAddSegment);
  session.apply_edit(edit);
  session.solve({Method::kNormal});
  const long long delta = session.stats().tiles_resolved - before;
  EXPECT_GT(delta, 0);  // something was invalidated
  EXPECT_LT(delta, session.tiles_total());  // ...but not everything
}

TEST(Session, PublishesSessionMetrics) {
  obs::metrics().clear();
  obs::set_metrics_enabled(true);
  FillSession session(small_layout(), small_config(1));
  session.solve({Method::kNormal});
  EditScript script(session.layout(), session.config().layer, 13);
  session.apply_edit(script.next(0));
  session.solve({Method::kNormal});
  auto& reg = obs::metrics();
  EXPECT_EQ(reg.counter("pilfill.session.edits").value(), 1);
  EXPECT_GT(reg.counter(obs::labeled("pilfill.session.tiles_reused",
                                     {{"method", "Normal"}}))
                .value(),
            0);
  EXPECT_GT(reg.counter(obs::labeled("pilfill.session.tiles_resolved",
                                     {{"method", "Normal"}}))
                .value(),
            0);
  obs::set_metrics_enabled(false);
  obs::metrics().clear();
}

TEST(Session, InvalidEditsRollBack) {
  const Layout l = small_layout();
  const FlowConfig config = small_config(1);
  FillSession session(l, config);

  // Every rejection is a plain pil::Error: a service client reads its
  // message, so it names the problem without a source location.
  auto rejects = [&](const WireEdit& edit) {
    try {
      session.apply_edit(edit);
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
      return;
    }
    ADD_FAILURE() << "edit was accepted";
  };

  // Unknown net / unknown segment / off-layer segment are rejected.
  rejects(WireEdit::add_segment(
      static_cast<layout::NetId>(l.num_nets() + 7), {1, 1}, {1, 3}, 0.4));
  rejects(WireEdit::remove_segment(
      static_cast<layout::SegmentId>(l.num_segments() + 7)));
  // A move that leaves the die is rejected atomically.
  rejects(WireEdit::move_segment(0, 1e6, 0));
  rejects(WireEdit::add_segment(0, {1, 1}, {1, 3}, 0.0));
  rejects(WireEdit::add_segment(0, {1, 1}, {3, 3}, 0.4));  // diagonal
  // A segment touching none of the net's routing fails the connectivity
  // gate and rolls back to a tombstone, which cannot be removed again.
  const auto tombstone = static_cast<layout::SegmentId>(l.num_segments());
  rejects(WireEdit::add_segment(0, {1, 1}, {1, 3}, 0.4));
  ASSERT_EQ(session.layout().num_segments(), l.num_segments() + 1);
  EXPECT_TRUE(session.layout().segment(tombstone).removed());
  rejects(WireEdit::remove_segment(tombstone));
  // A fill-layer segment other than its net's trunk is a stub with a sink
  // at its end: removing it disconnects that sink.
  const auto stub = std::find_if(
      l.segments().begin(), l.segments().end(),
      [&](const layout::WireSegment& s) {
        return s.layer == config.layer && l.net(s.net).segments[0] != s.id;
      });
  ASSERT_NE(stub, l.segments().end());
  rejects(WireEdit::remove_segment(stub->id));

  // The session still matches a fresh flow on the original layout; the
  // tombstone is inert.
  const FlowResult incremental = session.solve({Method::kNormal});
  EXPECT_TRUE(flow_results_equivalent(
      incremental, run_pil_fill_flow(l, config, {Method::kNormal})));
  EXPECT_TRUE(flow_results_equivalent(
      incremental,
      run_pil_fill_flow(session.layout(), config, {Method::kNormal})));
}

TEST(SessionValidate, RejectsBadConfigs) {
  const Layout l = small_layout();
  {
    FlowConfig c = small_config();
    c.window_um = 0;
    EXPECT_THROW(c.validate(), Error);
    EXPECT_THROW(FillSession(l, c), Error);
  }
  {
    FlowConfig c = small_config();
    c.r = 0;
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.switch_factor = 0;
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.net_criticality = {1.0, -0.5};
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.required_per_tile = {1, -2};
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.required_per_tile = {1, 2, 3};  // wrong size for the dissection
    EXPECT_NO_THROW(c.validate());
    EXPECT_THROW(c.validate(l), Error);
    EXPECT_THROW(FillSession(l, c), Error);
  }
  {
    FlowConfig c = small_config();
    c.layer = 42;
    EXPECT_THROW(c.validate(l), Error);
  }
  {
    FlowConfig c = small_config();
    c.style = cap::FillStyle::kGrounded;
    EXPECT_NO_THROW(c.validate(l, {Method::kNormal, Method::kGreedy}));
    EXPECT_THROW(c.validate(l, {Method::kIlp1}), Error);
    EXPECT_THROW(c.validate(l, {Method::kIlp2}), Error);
    EXPECT_THROW(c.validate(l, {Method::kConvex}), Error);
    FillSession session(l, c);
    EXPECT_THROW(session.solve({Method::kIlp2}), Error);
    EXPECT_THROW(run_pil_fill_flow(l, c, {Method::kConvex}), Error);
  }
}

}  // namespace
}  // namespace pil::pilfill

#include "pil/pilfill/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "flow_common.hpp"
#include "pil/obs/journal.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/obs/stage.hpp"
#include "pil/util/log.hpp"
#include "pil/util/stopwatch.hpp"

namespace pil::pilfill {

namespace {

using fill::SlackColumns;
using fill::SlackMode;

/// Bitwise double comparison: distinguishes -0.0 from +0.0 (and any NaN
/// payloads), which is what "reusing this cached solve is provably safe"
/// requires -- equal bits in, equal bits out.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Two instances are interchangeable as *solver inputs* when everything a
/// solver reads matches bitwise. InstanceColumn::column -- the snapshot-flat
/// column index -- is deliberately excluded: untouched columns keep their
/// values across an edit but may shift position in the snapshot, and no
/// solver reads the index (placement rectangles are generated from the
/// current snapshot at assembly time, cached counts in hand).
bool solver_equivalent(const TileInstance& a, const TileInstance& b) {
  if (a.tile_flat != b.tile_flat || a.required != b.required ||
      a.cols.size() != b.cols.size())
    return false;
  for (std::size_t k = 0; k < a.cols.size(); ++k) {
    const InstanceColumn& ca = a.cols[k];
    const InstanceColumn& cb = b.cols[k];
    if (ca.first_site != cb.first_site || ca.num_sites != cb.num_sites ||
        ca.two_sided != cb.two_sided || ca.below_net != cb.below_net ||
        ca.above_net != cb.above_net || !bits_equal(ca.x, cb.x) ||
        !bits_equal(ca.d, cb.d) ||
        !bits_equal(ca.res_nonweighted, cb.res_nonweighted) ||
        !bits_equal(ca.res_weighted, cb.res_weighted) ||
        !bits_equal(ca.res_exact, cb.res_exact))
      return false;
  }
  return true;
}

bool stats_equal(const grid::DensityStats& a, const grid::DensityStats& b) {
  return a.min_density == b.min_density && a.max_density == b.max_density &&
         a.mean_density == b.mean_density;
}

bool rects_equal(const std::vector<geom::Rect>& a,
                 const std::vector<geom::Rect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].xlo != b[i].xlo || a[i].ylo != b[i].ylo ||
        a[i].xhi != b[i].xhi || a[i].yhi != b[i].yhi)
      return false;
  return true;
}

bool impacts_equal(const DelayImpact& a, const DelayImpact& b) {
  return a.delay_ps == b.delay_ps &&
         a.weighted_delay_ps == b.weighted_delay_ps &&
         a.exact_sink_delay_ps == b.exact_sink_delay_ps &&
         a.features == b.features && a.unmapped == b.unmapped;
}

bool targets_equal(const density::FillTargetResult& a,
                   const density::FillTargetResult& b) {
  return a.features_per_tile == b.features_per_tile &&
         a.total_features == b.total_features &&
         stats_equal(a.before, b.before) && stats_equal(a.after, b.after) &&
         a.lower_target_used == b.lower_target_used &&
         a.upper_bound_used == b.upper_bound_used;
}

bool failures_equal(const std::vector<TileFailure>& a,
                    const std::vector<TileFailure>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].tile != b[i].tile || a[i].method != b[i].method ||
        a[i].served_by != b[i].served_by || a[i].reason != b[i].reason ||
        a[i].ilp_status != b[i].ilp_status ||
        a[i].lp_status != b[i].lp_status ||
        a[i].used_incumbent != b[i].used_incumbent)
      return false;
  return true;
}

bool methods_equal(const MethodResult& a, const MethodResult& b) {
  return a.method == b.method && impacts_equal(a.impact, b.impact) &&
         a.placed == b.placed && a.shortfall == b.shortfall &&
         a.bb_nodes == b.bb_nodes && a.lp_solves == b.lp_solves &&
         a.simplex_iterations == b.simplex_iterations &&
         a.tiles_node_limit == b.tiles_node_limit &&
         a.tiles_degraded == b.tiles_degraded &&
         a.tiles_failed == b.tiles_failed &&
         failures_equal(a.failures, b.failures) &&
         a.max_ilp_gap == b.max_ilp_gap &&
         stats_equal(a.density_after, b.density_after) &&
         a.placement.features_per_tile == b.placement.features_per_tile &&
         rects_equal(a.placement.features, b.placement.features);
}

}  // namespace

bool flow_results_equivalent(const FlowResult& a, const FlowResult& b) {
  if (!stats_equal(a.density_before, b.density_before) ||
      !targets_equal(a.target, b.target) ||
      a.total_capacity != b.total_capacity ||
      a.methods.size() != b.methods.size())
    return false;
  for (std::size_t i = 0; i < a.methods.size(); ++i)
    if (!methods_equal(a.methods[i], b.methods[i])) return false;
  return true;
}

// ---------------------------------------------------------------------------

struct FillSession::Impl {
  layout::Layout layout;  ///< owned, mutated by apply_edit
  FlowConfig config;

  StageSeconds stages;

  std::optional<grid::Dissection> dissection;
  std::optional<grid::DensityMap> wires;
  std::vector<rctree::RcTree> trees;  ///< one per net, net-id order
  std::vector<int> piece_offsets;     ///< net n's pieces: [off[n], off[n+1])
  std::vector<rctree::WirePiece> pieces;
  /// Owns the mode-III columns (global_slack()); rescans update them in
  /// place.
  std::optional<fill::GlobalSlackScan> scan;
  std::optional<fill::GlobalSlackScan> alt;  ///< solver's, when mode != III
  density::FillTargetResult target;
  std::map<int, TileInstance> instances;  ///< tile_flat -> instance (req > 0)
  std::optional<cap::CouplingModel> model;
  std::optional<cap::ColumnCapLut> lut;  ///< shared single-thread LUT cache
  /// Built once at prep over global() and pieces; apply_edit updates both
  /// in place, so the evaluator (and a caller's reference to it) stays
  /// current for the session's life.
  std::optional<DelayImpactEvaluator> evaluator;
  /// Per-method, per-tile solve results; entries dropped when an edit
  /// changes the tile's solver inputs.
  std::map<Method, std::map<int, TileSolveResult>> cache;
  /// One method's density_after state: the tile areas of wires() plus the
  /// method's last placement, and the tiles whose area can have changed
  /// since (all of them until the method's first solve).
  struct DensityAfter {
    explicit DensityAfter(const grid::Dissection& dissection)
        : map(dissection), stale(dissection.num_tiles(), 1) {}
    grid::DensityMap map;
    std::vector<char> stale;
  };
  std::map<Method, DensityAfter> density_after;
  /// Tiles past its own that a fill feature can overlap. A feature is
  /// centred in its instance's tile, so it reaches feature_um / 2 past the
  /// tile's edge: ceil(feature_um / (2 * tile side)) tiles, and one more
  /// when that ratio is whole (a centre rounded onto a tile edge).
  int reach = 1;
  SessionStats stats;
  bool edited = false;  ///< gates pilfill.session.* publication in solve()
  std::uint32_t journal_session_id = 0;  ///< correlation id for flight dumps

  const SlackColumns& global() const { return scan->columns(); }
  const SlackColumns& solver_slack() const {
    return alt ? alt->columns() : global();
  }

  /// Per-tile fill requirements from the current density map and capacity
  /// inventory -- the same computation for prep and re-targeting after an
  /// edit (the MC targeter is global and sequential, so it re-runs whole).
  density::FillTargetResult compute_target() const {
    std::vector<int> capacity(dissection->num_tiles());
    for (int t = 0; t < dissection->num_tiles(); ++t)
      capacity[t] = global().tile_capacity(t);
    if (config.required_per_tile.empty()) {
      switch (config.target_engine) {
        case TargetEngine::kMonteCarlo:
          return density::compute_fill_amounts_mc(*wires, capacity,
                                                  config.rules, config.target);
        case TargetEngine::kMinVarLp:
          return density::compute_fill_amounts_lp(*wires, capacity,
                                                  config.rules, config.target);
        case TargetEngine::kMinFillLp:
          return density::compute_fill_amounts_min_fill_lp(
              *wires, capacity, config.rules, config.target);
      }
    }
    density::FillTargetResult out;
    PIL_REQUIRE(static_cast<int>(config.required_per_tile.size()) ==
                    dissection->num_tiles(),
                "required_per_tile size must match the dissection");
    out.features_per_tile = config.required_per_tile;
    out.before = wires->stats();
    grid::DensityMap after = *wires;
    for (int t = 0; t < dissection->num_tiles(); ++t) {
      PIL_REQUIRE(config.required_per_tile[t] >= 0,
                  "negative fill requirement");
      out.total_features += config.required_per_tile[t];
      after.add_area(dissection->tile_unflat(t),
                     config.required_per_tile[t] *
                         config.rules.feature_area());
    }
    out.after = after.stats();
    return out;
  }

  Impl(const layout::Layout& src, const FlowConfig& cfg)
      : layout(src), config(cfg) {
    config.validate(layout);
    // Flight-recorder attribution: give this session a correlation id and
    // make sure dumps can decode pilfill enum payloads.
    register_journal_namer();
    journal_session_id = obs::journal_new_id();
    // Config-armed fault injection is process-global (like PIL_FAULT); a
    // non-empty spec replaces the active plan, an empty one leaves any
    // env-armed plan alone.
    if (!config.fault_spec.empty())
      util::set_fault_plan(util::FaultPlan::parse(config.fault_spec,
                                                  config.seed));
    {
      obs::Stage stage("grid.dissection", &stages.dissection);
      dissection.emplace(layout.die(), config.window_um, config.r);
    }
    wires.emplace(*dissection);
    {
      obs::Stage stage("rctree.extraction", &stages.rc_extraction);
      trees = rctree::build_all_trees(layout);
      pieces = fill::flatten_pieces(trees);
      piece_offsets.assign(trees.size() + 1, 0);
      for (std::size_t n = 0; n < trees.size(); ++n)
        piece_offsets[n + 1] =
            piece_offsets[n] + static_cast<int>(trees[n].pieces().size());
    }
    {
      obs::Stage stage("grid.density_map", &stages.density_map);
      wires->add_layer_metal(layout, config.layer);
    }
    {
      obs::Stage stage("fill.slack_scan", &stages.slack_extraction);
      scan.emplace(layout, *dissection, config.layer, config.rules,
                   SlackMode::kIII);
      scan->build(pieces);
      if (config.solver_mode != SlackMode::kIII) {
        alt.emplace(layout, *dissection, config.layer, config.rules,
                    config.solver_mode);
        alt->build(pieces);
      }
    }
    {
      obs::Stage stage("density.targeting", &stages.targeting);
      target = compute_target();
    }
    {
      obs::Stage stage("pilfill.instance.build", &stages.instances);
      for (int t = 0; t < dissection->num_tiles(); ++t) {
        const int required = target.features_per_tile[t];
        if (required == 0) continue;
        instances.emplace(t,
                          build_tile_instance(t, required, solver_slack(),
                                              pieces, config.net_criticality));
      }
    }
    obs::journal_record_at(
        {journal_session_id, 0, -1}, obs::JournalEventKind::kSessionBegin, 0,
        0, static_cast<std::uint64_t>(dissection->num_tiles()),
        stages.total());

    const layout::Layer& layer = layout.layer(config.layer);
    model.emplace(layer.eps_r, layer.thickness_um);
    lut.emplace(*model, config.rules.feature_um);
    evaluator.emplace(global(), pieces, *model, config.rules,
                      EvaluatorOptions{config.style, config.switch_factor});
    reach = static_cast<int>(std::floor(config.rules.feature_um /
                                        (2 * dissection->tile_um()))) +
            1;

    if (obs::metrics_enabled()) {
      auto& reg = obs::metrics();
      reg.counter("pilfill.prep.tiles").add(dissection->num_tiles());
      reg.counter("pilfill.prep.instances")
          .add(static_cast<long long>(instances.size()));
    }
  }

  grid::DensityMap density_with(
      const std::vector<geom::Rect>& features) const {
    grid::DensityMap map = *wires;
    for (const auto& rect : features) map.add_rect(rect);
    return map;
  }

  /// Flag `tile` and every tile within `reach` of it.
  void mark_reach(std::vector<char>& flags, int tile) const {
    const grid::TileIndex t = dissection->tile_unflat(tile);
    const int x1 = std::min(t.ix + reach, dissection->tiles_x() - 1);
    const int y1 = std::min(t.iy + reach, dissection->tiles_y() - 1);
    for (int iy = std::max(t.iy - reach, 0); iy <= y1; ++iy)
      for (int ix = std::max(t.ix - reach, 0); ix <= x1; ++ix)
        flags[dissection->tile_flat({ix, iy})] = 1;
  }

  /// Bring a method's density_after state up to date with the placement
  /// just assembled (`ends[i]`: end of tiles[i]'s features). Each stale
  /// tile is reset to its wire area and then gains, in placement order, the
  /// overlap of every feature of each instance that can reach it -- the sum
  /// density_with(features) forms for that tile, in the same order. Other
  /// tiles already hold that sum. Marks are cleared only once it is done.
  void refresh_density_after(
      DensityAfter& da,
      const std::vector<std::pair<const TileInstance*,
                                  const TileSolveResult*>>& tiles,
      const std::vector<std::size_t>& ends,
      const std::vector<geom::Rect>& features) const {
    std::vector<char> near(da.stale.size(), 0);
    for (std::size_t t = 0; t < da.stale.size(); ++t)
      if (da.stale[t]) mark_reach(near, static_cast<int>(t));
    da.map.reset_tiles(*wires, da.stale);
    std::size_t begin = 0;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      if (near[tiles[i].first->tile_flat])
        for (std::size_t f = begin; f < ends[i]; ++f)
          da.map.add_rect(features[f], da.stale);
      begin = ends[i];
    }
    std::fill(da.stale.begin(), da.stale.end(), 0);
  }

  FlowResult solve(const std::vector<Method>& methods,
                   const SolvePolicy* policy_override,
                   std::uint32_t journal_flow_id,
                   const util::Deadline* cancel) {
    // A per-call policy swaps only the SolvePolicy slice; the model half --
    // everything the cached prep and solves were built from -- is shared
    // with the session config by construction.
    FlowConfig effective;
    if (policy_override != nullptr) {
      policy_override->validate();
      effective = config;
      effective.policy() = *policy_override;
      if (!policy_override->fault_spec.empty())
        util::set_fault_plan(util::FaultPlan::parse(
            policy_override->fault_spec, config.seed));
      // Ladder-served cache entries are artifacts of the policy that
      // produced them (a tighter deadline degrades tiles a looser one
      // would solve); under a per-call policy they are re-attempted.
      for (auto& [m, mcache] : cache)
        for (auto it = mcache.begin(); it != mcache.end();)
          it = it->second.failure.has_value() ? mcache.erase(it)
                                              : std::next(it);
    }
    const FlowConfig& cfg = policy_override != nullptr ? effective : config;

    flow_detail::require_methods_supported(cfg, methods);
    FlowResult result;
    result.density_before = wires->stats();
    result.total_capacity = global().total_capacity();
    result.target = target;
    result.prep_stages = stages;

    // The flow budget covers this solve() call: the clock starts here, and
    // tiles solved after it expires are served by the degradation ladder.
    // An external cancel token rides the same flow deadline: sooner()
    // keeps the token's shared cancellation flag (token first), so a
    // watchdog firing cancel() degrades mid-solve like an expired budget.
    std::optional<util::Deadline> flow_deadline;
    if (cfg.flow_deadline_seconds > 0) {
      flow_deadline =
          cancel != nullptr
              ? util::Deadline::sooner(
                    *cancel, util::Deadline::after(cfg.flow_deadline_seconds))
              : util::Deadline::after(cfg.flow_deadline_seconds);
    } else if (cancel != nullptr) {
      flow_deadline = *cancel;
    }
    const SolverContext ctx = flow_detail::make_context(
        cfg, *model, *lut, flow_deadline ? &*flow_deadline : nullptr);

    // One flow correlation id per solve() call (callers like pil::service
    // may supply their own to tie solver events to a request); the worker
    // pool copies the scope into its threads so every tile event links
    // back here.
    obs::JournalScope journal_scope(
        {journal_session_id,
         journal_flow_id != 0 ? journal_flow_id : obs::journal_new_id(), -1});
    Stopwatch flow_watch;
    obs::journal_record(obs::JournalEventKind::kFlowBegin, 0, 0,
                        static_cast<std::uint64_t>(instances.size()));

    for (const Method method : methods) {
      MethodResult mr;
      mr.method = method;
      mr.placement.features_per_tile.assign(dissection->num_tiles(), 0);

      std::map<int, TileSolveResult>& mcache = cache[method];
      DensityAfter& da =
          density_after.try_emplace(method, *dissection).first->second;
      std::vector<const TileInstance*> todo;
      {
        obs::Stage stage("pilfill.solve.tiles", &mr.solve_seconds,
                         to_string(method));
        std::vector<int> todo_tiles;
        todo.reserve(instances.size());
        for (const auto& [tile, inst] : instances) {
          if (mcache.count(tile)) continue;
          todo.push_back(&inst);
          todo_tiles.push_back(tile);
          // Marked before the solve: a solve that throws leaves it set.
          mark_reach(da.stale, tile);
        }
        obs::journal_record(obs::JournalEventKind::kMethodBegin,
                            static_cast<std::uint16_t>(method), 0,
                            static_cast<std::uint64_t>(todo.size()));
        std::vector<TileSolveResult> solved =
            flow_detail::solve_instances_parallel(method, todo, ctx, *model,
                                                  cfg);
        for (std::size_t i = 0; i < todo.size(); ++i)
          mcache[todo_tiles[i]] = std::move(solved[i]);
      }
      obs::journal_record(obs::JournalEventKind::kMethodEnd,
                          static_cast<std::uint16_t>(method), 0,
                          static_cast<std::uint64_t>(todo.size()),
                          mr.solve_seconds);

      const long long reused =
          static_cast<long long>(instances.size() - todo.size());
      stats.tiles_resolved += static_cast<long long>(todo.size());
      stats.tiles_reused += reused;

      // Every instance with its cached solve, in tile order.
      std::vector<std::pair<const TileInstance*, const TileSolveResult*>>
          tiles;
      tiles.reserve(instances.size());
      for (const auto& [tile, inst] : instances) {
        const TileSolveResult& tsr = mcache.at(tile);
        tiles.emplace_back(&inst, &tsr);
        flow_detail::accumulate_tile_stats(tsr, mr);
        mr.placement.features_per_tile[tile] = tsr.placed;
      }
      mr.placement.features.reserve(static_cast<std::size_t>(mr.placed));
      std::vector<std::size_t> ends;
      ends.reserve(tiles.size());
      for (const auto& [inst, tsr] : tiles) {
        flow_detail::append_rects(*inst, tsr->counts, solver_slack(),
                                  cfg.rules, mr.placement.features);
        ends.push_back(mr.placement.features.size());
      }

      {
        obs::Stage stage("pilfill.evaluate", &mr.eval_seconds,
                         to_string(method));
        if (alt) {
          // Modes I/II: instance columns are the solver's, not the
          // evaluator's, so the placement is binned into the global ones.
          mr.impact = evaluator->evaluate_rects(mr.placement.features);
        } else {
          // Mode III: instance columns are global columns; sum the cached
          // counts of every tile part into their column.
          std::vector<int> counts(global().columns().size(), 0);
          for (const auto& [inst, tsr] : tiles)
            for (std::size_t k = 0; k < inst->cols.size(); ++k)
              counts[inst->cols[k].column] += tsr->counts[k];
          mr.impact = evaluator->evaluate_counts(counts);
        }
      }

      refresh_density_after(da, tiles, ends, mr.placement.features);
      mr.density_after = da.map.stats();

      flow_detail::publish_method_metrics(mr, todo.size());
      // Session counters are only published once the session is used as a
      // session (an edit happened or a solve hit the cache), so a pristine
      // one-shot run emits exactly the metric set it always has.
      if ((edited || reused > 0) && obs::metrics_enabled()) {
        auto& reg = obs::metrics();
        const char* m = to_string(method);
        reg.counter(obs::labeled("pilfill.session.tiles_resolved",
                                 {{"method", m}}))
            .add(static_cast<long long>(todo.size()));
        reg.counter(
               obs::labeled("pilfill.session.tiles_reused", {{"method", m}}))
            .add(reused);
      }
      if (mr.tiles_node_limit > 0 || mr.tiles_degraded > 0 ||
          mr.tiles_failed > 0)
        PIL_WARN(to_string(method)
                 << ": " << mr.tiles_node_limit << " tile(s) hit the B&B node "
                 << "budget (worst gap " << mr.max_ilp_gap << "), "
                 << mr.tiles_degraded << " tile(s) served degraded, "
                 << mr.tiles_failed << " tile(s) failed outright");
      PIL_INFO(to_string(method)
               << ": placed " << mr.placed << " (shortfall " << mr.shortfall
               << "), delay +" << mr.impact.delay_ps << " ps, weighted +"
               << mr.impact.weighted_delay_ps << " ps, "
               << mr.solve_seconds << " s");
      result.methods.push_back(std::move(mr));
    }
    obs::journal_record(obs::JournalEventKind::kFlowEnd, 0, 0, 0,
                        flow_watch.seconds());
    return result;
  }

  EditStats apply_edit(const WireEdit& edit) {
    EditStats es;
    {
      obs::Stage stage("pilfill.session.apply_edit", &es.seconds);
      edit_in_place(edit, es);
    }
    obs::journal_record_at({journal_session_id, 0, -1},
                           obs::JournalEventKind::kSessionEdit, 0, 0,
                           static_cast<std::uint64_t>(es.segment), es.seconds);
    if (obs::metrics_enabled()) {
      auto& reg = obs::metrics();
      reg.counter("pilfill.session.edits").add(1);
      reg.counter("pilfill.session.columns_rescanned")
          .add(es.columns_rescanned);
      reg.counter("pilfill.session.tiles_dirty").add(es.tiles_dirty);
    }
    PIL_INFO("apply_edit: segment " << es.segment << ", "
             << es.columns_rescanned << " column(s) rescanned, "
             << es.tiles_retargeted << " tile(s) retargeted, "
             << es.tiles_dirty << " tile(s) dirty (" << es.seconds << " s)");
    return es;
  }

  /// apply_edit's work, steps 1-8: mutate the layout and refresh the prep
  /// state, recording everything but the time in `es`.
  void edit_in_place(const WireEdit& edit, EditStats& es) {
    // -- 1. Resolve the edited net and validate the request. --------------
    layout::NetId net = layout::kInvalidNet;
    switch (edit.kind) {
      case WireEdit::Kind::kAddSegment:
        if (edit.net == layout::kInvalidNet ||
            static_cast<std::size_t>(edit.net) >= layout.num_nets())
          throw Error("edit references an unknown net");
        if (!(edit.width_um > 0))
          throw Error("added segment needs a positive width");
        net = edit.net;
        break;
      case WireEdit::Kind::kRemoveSegment:
      case WireEdit::Kind::kMoveSegment: {
        if (edit.segment < 0 ||
            static_cast<std::size_t>(edit.segment) >= layout.num_segments())
          throw Error("edit references an unknown segment");
        const layout::WireSegment& seg = layout.segment(edit.segment);
        if (seg.removed()) throw Error("segment was already removed");
        if (seg.layer != config.layer)
          throw Error("edits must stay on the session's fill layer");
        net = seg.net;
        break;
      }
    }

    // Footprints of the edited net's pieces *before* the edit. Every column
    // any of them bounds must be rescanned: the edit changes upstream
    // resistances and sink weights across the whole net, not just near the
    // edited segment.
    std::vector<geom::Rect> changed;
    for (int p = piece_offsets[net]; p < piece_offsets[net + 1]; ++p)
      changed.push_back(pieces[p].rect());

    // -- 2. Mutate the layout, remembering how to roll back. ---------------
    layout::SegmentId sid = layout::kInvalidSegment;
    std::vector<geom::Rect> drawn;  // density-relevant drawn rects (old+new)
    std::function<void()> rollback;
    switch (edit.kind) {
      case WireEdit::Kind::kAddSegment: {
        sid = layout.add_segment(net, config.layer, edit.a, edit.b,
                                 edit.width_um);
        drawn.push_back(layout.segment(sid).rect());
        // A rolled-back add leaves an inert tombstone (ids stay stable).
        rollback = [this, sid] { layout.remove_segment(sid); };
        break;
      }
      case WireEdit::Kind::kRemoveSegment: {
        sid = edit.segment;
        const layout::WireSegment saved = layout.segment(sid);
        drawn.push_back(saved.rect());
        const std::vector<layout::SegmentId>& segs = layout.net(net).segments;
        const std::size_t pos =
            std::find(segs.begin(), segs.end(), sid) - segs.begin();
        layout.remove_segment(sid);
        rollback = [this, sid, saved, pos] {
          layout.mutable_segment(sid) = saved;
          std::vector<layout::SegmentId>& list =
              layout.mutable_net(saved.net).segments;
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(pos), sid);
        };
        break;
      }
      case WireEdit::Kind::kMoveSegment: {
        sid = edit.segment;
        const layout::WireSegment saved = layout.segment(sid);
        drawn.push_back(saved.rect());
        layout.move_segment(sid, edit.dx, edit.dy);  // atomic: throws first
        drawn.push_back(layout.segment(sid).rect());
        rollback = [this, sid, saved] {
          layout::WireSegment& seg = layout.mutable_segment(sid);
          // Restore the exact doubles: (a + dx) - dx may differ from a.
          seg.a = saved.a;
          seg.b = saved.b;
        };
        break;
      }
    }

    // -- 3. Rebuild the edited net's RC tree (the connectivity gate). ------
    try {
      // The session_edit fault site sits inside the rollback scope so an
      // injected throw exercises the strong guarantee: the layout mutation
      // above must be undone before the exception escapes.
      if (util::faults_armed())
        util::maybe_fault(util::FaultSite::kSessionEdit,
                          static_cast<std::uint64_t>(stats.edits));
      rctree::RcTree fresh = rctree::RcTree::build(layout, net);
      trees[net] = std::move(fresh);
    } catch (const util::InjectedFault& e) {
      obs::journal_record_at({journal_session_id, 0, -1},
                             obs::JournalEventKind::kFaultInjected, 0,
                             static_cast<std::uint32_t>(e.site()), e.key());
      rollback();
      throw;
    } catch (...) {
      rollback();
      throw;
    }
    edited = true;

    // -- 4. Splice the rebuilt tree's pieces over the net's range of the
    //       flattened array; pieces of later nets shift by a constant. ----
    const std::vector<rctree::WirePiece>& net_pieces = trees[net].pieces();
    const int old_net_end = piece_offsets[net + 1];
    const int old_size = old_net_end - piece_offsets[net];
    const int new_size = static_cast<int>(net_pieces.size());
    const int delta = new_size - old_size;
    const int common = std::min(old_size, new_size);
    std::copy(net_pieces.begin(), net_pieces.begin() + common,
              pieces.begin() + piece_offsets[net]);
    if (delta > 0)
      pieces.insert(pieces.begin() + old_net_end, net_pieces.begin() + common,
                    net_pieces.end());
    else
      pieces.erase(pieces.begin() + piece_offsets[net] + common,
                   pieces.begin() + old_net_end);
    for (std::size_t n = net + 1; n < piece_offsets.size(); ++n)
      piece_offsets[n] += delta;
    scan->shift_piece_indices(old_net_end, delta);
    if (alt) alt->shift_piece_indices(old_net_end, delta);

    // Post-edit footprints of the net, plus the drawn rects for safety.
    for (int p = piece_offsets[net]; p < piece_offsets[net + 1]; ++p)
      changed.push_back(pieces[p].rect());
    changed.insert(changed.end(), drawn.begin(), drawn.end());

    // -- 5. Density: re-accumulate the tiles under the drawn change, in
    //       original layout order (bit-identical to a fresh map). ---------
    std::vector<int> density_tiles;
    for (const geom::Rect& r : drawn) {
      grid::TileIndex lo, hi;
      if (!dissection->tiles_overlapping(r, lo, hi)) continue;
      for (int iy = lo.iy; iy <= hi.iy; ++iy)
        for (int ix = lo.ix; ix <= hi.ix; ++ix)
          density_tiles.push_back(dissection->tile_flat({ix, iy}));
    }
    std::sort(density_tiles.begin(), density_tiles.end());
    density_tiles.erase(
        std::unique(density_tiles.begin(), density_tiles.end()),
        density_tiles.end());
    if (!density_tiles.empty())
      wires->recompute_tiles(layout, config.layer, density_tiles);
    for (auto& [m, da] : density_after)
      for (const int t : density_tiles) da.stale[t] = 1;

    // -- 6. Re-scan the slack columns the edit can see; the solver's
    //       columns decide which instances to rebuild. -------------------
    fill::GlobalSlackScan::RescanResult rr = scan->rescan(pieces, changed);
    if (alt) rr = alt->rescan(pieces, changed);
    std::set<int> candidates(rr.touched_tiles.begin(),
                             rr.touched_tiles.end());

    // Untouched tiles keep their instances; only the stored flat column
    // indices shift with the rescanned groups.
    for (auto& [tile, inst] : instances) {
      if (candidates.count(tile)) continue;  // rebuilt below
      for (InstanceColumn& ic : inst.cols) {
        PIL_ASSERT(rr.column_remap[ic.column] >= 0,
                   "untouched tile references a rescanned column");
        ic.column = rr.column_remap[ic.column];
      }
    }

    // -- 7. Re-target: requirement changes dirty tiles whose geometry the
    //       edit never touched (window-overlap propagation). --------------
    const std::vector<int> old_required = target.features_per_tile;
    target = compute_target();
    int retargeted = 0;
    for (int t = 0; t < dissection->num_tiles(); ++t) {
      if (target.features_per_tile[t] == old_required[t]) continue;
      candidates.insert(t);
      ++retargeted;
    }

    // -- 8. Rebuild candidate instances; drop cached solves only when the
    //       solver inputs actually changed. Density goes stale around a
    //       removed instance and around a kept one whose sites moved (its
    //       cached counts now place other rectangles); solve() marks the
    //       tiles it re-solves. ----------------------------------------
    int dirty = 0;
    for (const int t : candidates) {
      const int required = target.features_per_tile[t];
      auto it = instances.find(t);
      if (required == 0) {
        if (it != instances.end()) {
          instances.erase(it);
          for (auto& [m, mcache] : cache) mcache.erase(t);
          for (auto& [m, da] : density_after) mark_reach(da.stale, t);
          ++dirty;
        }
        continue;
      }
      TileInstance fresh = build_tile_instance(
          t, required, solver_slack(), pieces, config.net_criticality);
      const bool reusable =
          it != instances.end() && solver_equivalent(it->second, fresh);
      if (it == instances.end())
        instances.emplace(t, std::move(fresh));
      else
        it->second = std::move(fresh);
      if (!reusable) {
        for (auto& [m, mcache] : cache) mcache.erase(t);
        ++dirty;
      } else if (std::binary_search(rr.sites_changed.begin(),
                                    rr.sites_changed.end(), t)) {
        for (auto& [m, da] : density_after) mark_reach(da.stale, t);
      }
    }

    ++stats.edits;
    stats.columns_rescanned += rr.xcols_rescanned;
    stats.tiles_dirty += dirty;

    es.segment = sid;
    es.columns_rescanned = rr.xcols_rescanned;
    es.tiles_retargeted = retargeted;
    es.tiles_dirty = dirty;
  }
};

// ---------------------------------------------------------------------------

FillSession::FillSession(const layout::Layout& layout,
                         const FlowConfig& config)
    : impl_(std::make_unique<Impl>(layout, config)) {}
FillSession::~FillSession() = default;
FillSession::FillSession(FillSession&&) noexcept = default;
FillSession& FillSession::operator=(FillSession&&) noexcept = default;

FlowResult FillSession::solve(const std::vector<Method>& methods) {
  return impl_->solve(methods, nullptr, 0, nullptr);
}

FlowResult FillSession::solve(const std::vector<Method>& methods,
                              const SolvePolicy& policy,
                              std::uint32_t journal_flow_id,
                              const util::Deadline* cancel) {
  return impl_->solve(methods, &policy, journal_flow_id, cancel);
}

EditStats FillSession::apply_edit(const WireEdit& edit) {
  return impl_->apply_edit(edit);
}

const layout::Layout& FillSession::layout() const { return impl_->layout; }
const FlowConfig& FillSession::config() const { return impl_->config; }
const grid::Dissection& FillSession::dissection() const {
  return *impl_->dissection;
}
int FillSession::tiles_total() const { return impl_->dissection->num_tiles(); }
const SessionStats& FillSession::stats() const { return impl_->stats; }
const grid::DensityMap& FillSession::wires() const { return *impl_->wires; }
const density::FillTargetResult& FillSession::target() const {
  return impl_->target;
}
const fill::SlackColumns& FillSession::global_slack() const {
  return impl_->global();
}
const fill::SlackColumns& FillSession::solver_slack() const {
  return impl_->solver_slack();
}
const std::vector<rctree::RcTree>& FillSession::trees() const {
  return impl_->trees;
}
const std::vector<rctree::WirePiece>& FillSession::pieces() const {
  return impl_->pieces;
}
const DelayImpactEvaluator& FillSession::evaluator() const {
  return *impl_->evaluator;
}
grid::DensityMap FillSession::density_with(
    const std::vector<geom::Rect>& features) const {
  return impl_->density_with(features);
}
std::vector<TileInstance> FillSession::instances_snapshot() const {
  std::vector<TileInstance> out;
  out.reserve(impl_->instances.size());
  for (const auto& [tile, inst] : impl_->instances) out.push_back(inst);
  return out;
}
double FillSession::prep_seconds() const { return impl_->stages.total(); }
const StageSeconds& FillSession::prep_stages() const { return impl_->stages; }

}  // namespace pil::pilfill

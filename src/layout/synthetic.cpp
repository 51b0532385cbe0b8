#include "pil/layout/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pil/geom/interval.hpp"
#include "pil/util/log.hpp"

namespace pil::layout {

namespace {

/// Track-grid occupancy for one routing direction. Tracks are indexed from 0
/// at coordinate pitch*(i+0.5); each track holds the set of occupied extents
/// along the track (drawn extent inflated by spacing, so a simple overlap
/// test enforces min spacing between co-track wires).
class TrackOccupancy {
 public:
  TrackOccupancy(int num_tracks, double pitch)
      : pitch_(pitch), used_(num_tracks) {}

  int num_tracks() const { return static_cast<int>(used_.size()); }
  double track_coord(int t) const { return pitch_ * (t + 0.5); }

  /// Track index whose coordinate equals `coord` (must be on-grid).
  int track_at(double coord) const {
    const int t = static_cast<int>(std::lround(coord / pitch_ - 0.5));
    PIL_ASSERT(t >= 0 && t < num_tracks(), "off-grid track coordinate");
    PIL_ASSERT(geom::nearly_equal(track_coord(t), coord, 1e-6),
               "coordinate not on track grid");
    return t;
  }

  /// Free iff no occupied extent strictly overlaps [lo, hi].
  bool is_free(int t, double lo, double hi) const {
    for (const auto& iv : used_[t].intervals()) {
      if (iv.lo >= hi) break;
      if (iv.hi > lo) return false;
    }
    return true;
  }

  void occupy(int t, double lo, double hi) { used_[t].insert(lo, hi); }

 private:
  double pitch_;
  std::vector<geom::IntervalSet> used_;
};

}  // namespace

Layout generate_synthetic_layout(const SyntheticLayoutConfig& cfg,
                                 GeneratorStats* stats_out) {
  // die_um arrives from client generator specs: a plain error.
  if (!(cfg.die_um > 0 && cfg.track_pitch_um > 0)) throw Error("bad die/pitch");
  PIL_REQUIRE(cfg.wire_width_um > 0 &&
                  cfg.wire_width_um + cfg.min_spacing_um <= cfg.track_pitch_um,
              "wires must fit on the track grid with spacing");
  PIL_REQUIRE(cfg.min_sinks >= 1 && cfg.max_sinks >= cfg.min_sinks,
              "bad sink count range");
  PIL_REQUIRE(cfg.min_trunk_um > 0 && cfg.max_trunk_um >= cfg.min_trunk_um,
              "bad trunk length range");
  PIL_REQUIRE(cfg.max_branch_tracks >= 1, "need at least 1 branch track");

  Rng rng(cfg.seed);
  Layout out(geom::Rect{0, 0, cfg.die_um, cfg.die_um});

  Layer layer;
  layer.name = "m3";
  layer.preferred_direction = Orientation::kHorizontal;
  layer.default_wire_width_um = cfg.wire_width_um;
  layer.sheet_res_ohm_sq = cfg.sheet_res_ohm_sq;
  layer.thickness_um = cfg.thickness_um;
  layer.eps_r = cfg.eps_r;
  const LayerId lid = out.add_layer(layer);
  LayerId branch_lid = lid;
  if (cfg.separate_branch_layer) {
    Layer m4 = layer;
    m4.name = "m4";
    m4.preferred_direction = Orientation::kVertical;
    branch_lid = out.add_layer(m4);
  }

  const double pitch = cfg.track_pitch_um;
  const int tracks = static_cast<int>(std::floor(cfg.die_um / pitch));
  if (tracks < 4) throw Error("die too small for track grid");
  TrackOccupancy hocc(tracks, pitch);  // horizontal tracks: y = pitch*(t+.5)
  TrackOccupancy vocc(tracks, pitch);  // vertical tracks:   x = pitch*(t+.5)

  // Drawn extent inflated by half the min spacing on each side, so that two
  // occupied extents that do not overlap are at least min_spacing apart.
  const double clr = cfg.min_spacing_um / 2 + cfg.wire_width_um / 2;
  const double dense_hi_x = cfg.die_um * cfg.dense_region_fraction;

  GeneratorStats stats;

  // Macro blockages first: they own their tracks outright, so nets placed
  // below simply route around them.
  for (int m = 0; m < cfg.num_macros; ++m) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const double w = pitch * std::round(rng.uniform_real(cfg.macro_min_um,
                                                           cfg.macro_max_um) /
                                          pitch);
      const double h = pitch * std::round(rng.uniform_real(cfg.macro_min_um,
                                                           cfg.macro_max_um) /
                                          pitch);
      const double x0 =
          pitch * std::round(rng.uniform_real(pitch, cfg.die_um - w - pitch) /
                             pitch);
      const double y0 =
          pitch * std::round(rng.uniform_real(pitch, cfg.die_um - h - pitch) /
                             pitch);
      const geom::Rect rect{x0, y0, x0 + w, y0 + h};
      bool clear = true;
      for (const auto& b : out.blockages())
        if (geom::overlaps_strictly(b.rect.inflated(pitch), rect)) {
          clear = false;
          break;
        }
      if (!clear) continue;
      out.add_blockage(lid, rect, /*is_metal=*/true);
      if (cfg.separate_branch_layer) out.add_blockage(branch_lid, rect, true);
      // Claim the covered tracks (inflated by clearance) in both grids.
      const int t0 = std::max(0, static_cast<int>((y0 - clr) / pitch - 0.5));
      const int t1 = std::min(tracks - 1,
                              static_cast<int>((y0 + h + clr) / pitch - 0.5) + 1);
      for (int t = t0; t <= t1; ++t) {
        const double ty = hocc.track_coord(t);
        if (ty > y0 - clr && ty < y0 + h + clr)
          hocc.occupy(t, x0 - clr, x0 + w + clr);
      }
      const int v0 = std::max(0, static_cast<int>((x0 - clr) / pitch - 0.5));
      const int v1 = std::min(tracks - 1,
                              static_cast<int>((x0 + w + clr) / pitch - 0.5) + 1);
      for (int v = v0; v <= v1; ++v) {
        const double vx = vocc.track_coord(v);
        if (vx > x0 - clr && vx < x0 + w + clr)
          vocc.occupy(v, y0 - clr, y0 + h + clr);
      }
      break;
    }
  }

  // A horizontal wire on track `t` spanning [xlo, xhi] must be clear of
  // co-track wires AND -- when branches share the layer -- of foreign
  // vertical branches crossing its y (cross-layer crossings are legal).
  auto hwire_free = [&](int t, double xlo, double xhi, int ignore_vt = -1) {
    if (!hocc.is_free(t, xlo - clr, xhi + clr)) return false;
    if (cfg.separate_branch_layer) return true;
    const double y = hocc.track_coord(t);
    const int vlo = std::max(
        0, static_cast<int>(std::floor((xlo - clr) / pitch - 0.5)));
    const int vhi = std::min(
        tracks - 1, static_cast<int>(std::ceil((xhi + clr) / pitch - 0.5)));
    for (int vt = vlo; vt <= vhi; ++vt) {
      if (vt == ignore_vt) continue;  // own junction, crossing intended
      const double vx = vocc.track_coord(vt);
      if (vx < xlo - clr || vx > xhi + clr) continue;
      if (!vocc.is_free(vt, y - clr, y + clr)) return false;
    }
    return true;
  };

  // A candidate segment whose endpoint lands on an existing segment of the
  // SAME net -- or over whose interior an existing same-net endpoint lies --
  // at any point other than the intended tap would close an electrical loop.
  // (Only possible in two-layer mode, where cross-layer crossings are
  // legal; same-layer mode already rejects these via occupancy.)
  auto on_centerline = [](const WireSegment& s, const geom::Point& p) {
    if (s.orientation() == Orientation::kHorizontal)
      return geom::nearly_equal(p.y, s.a.y, 1e-9) && p.x >= s.a.x - 1e-9 &&
             p.x <= s.b.x + 1e-9;
    return geom::nearly_equal(p.x, s.a.x, 1e-9) && p.y >= s.a.y - 1e-9 &&
           p.y <= s.b.y + 1e-9;
  };
  auto own_net_loop_risk = [&](NetId nid, const geom::Point& cand_a,
                               const geom::Point& cand_b,
                               const geom::Point& tap) {
    auto is_tap = [&](const geom::Point& p) {
      return geom::nearly_equal(p.x, tap.x, 1e-9) &&
             geom::nearly_equal(p.y, tap.y, 1e-9);
    };
    WireSegment cand;
    cand.net = nid;
    cand.width_um = cfg.wire_width_um;
    const bool cand_h = geom::nearly_equal(cand_a.y, cand_b.y);
    if ((cand_h && cand_a.x <= cand_b.x) || (!cand_h && cand_a.y <= cand_b.y)) {
      cand.a = cand_a;
      cand.b = cand_b;
    } else {
      cand.a = cand_b;
      cand.b = cand_a;
    }
    for (const SegmentId sid : out.net(nid).segments) {
      const WireSegment& s = out.segment(sid);
      for (const geom::Point& p : {cand_a, cand_b})
        if (!is_tap(p) && on_centerline(s, p)) return true;
      for (const geom::Point& p : {s.a, s.b})
        if (!is_tap(p) && on_centerline(cand, p)) return true;
    }
    return false;
  };

  for (int netno = 0; netno < cfg.num_nets; ++netno) {
    // --- Trunk placement (with retries) ---------------------------------
    bool placed = false;
    int trunk_track = 0;
    double x0 = 0, x1 = 0;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const bool dense = rng.bernoulli(cfg.dense_net_fraction);
      const double region_lo = dense ? 0.0 : dense_hi_x;
      const double region_hi = dense ? dense_hi_x : cfg.die_um;
      // Clamp the trunk length to the region so long nets stay where they
      // were seeded (otherwise they would all spill into the other region
      // and flatten the intended density gradient).
      const double max_len =
          std::min(cfg.max_trunk_um, region_hi - region_lo - 2 * clr - pitch);
      if (max_len < cfg.min_trunk_um) continue;
      const double len = rng.uniform_real(cfg.min_trunk_um, max_len);
      // Snap trunk endpoints to the vertical track grid so that branches
      // (which live on vertical tracks) can tap anywhere along the trunk.
      const double raw_x0 =
          rng.uniform_real(region_lo + clr, region_hi - len - clr);
      x0 = pitch * (std::floor(raw_x0 / pitch - 0.5) + 0.5);
      if (x0 < clr) x0 = pitch * 0.5;
      x1 = x0 + pitch * std::round(len / pitch);
      if (x1 > cfg.die_um - clr || x1 <= x0) continue;
      trunk_track = static_cast<int>(rng.uniform_int(0, tracks - 1));
      if (hwire_free(trunk_track, x0, x1)) placed = true;
    }
    if (!placed) {
      ++stats.nets_skipped;
      continue;
    }
    const double ty = hocc.track_coord(trunk_track);
    hocc.occupy(trunk_track, x0 - clr, x1 + clr);

    Net net;
    net.name = "n" + std::to_string(out.num_nets());
    net.source = geom::Point{x0, ty};
    net.driver_res_ohm =
        rng.uniform_real(cfg.driver_res_min_ohm, cfg.driver_res_max_ohm);
    const NetId nid = out.add_net(std::move(net));
    out.add_segment(nid, lid, geom::Point{x0, ty}, geom::Point{x1, ty},
                    cfg.wire_width_um);
    ++stats.segments;

    // --- Sinks via vertical branches ------------------------------------
    const int want_sinks =
        static_cast<int>(rng.uniform_int(cfg.min_sinks, cfg.max_sinks));
    int made_sinks = 0;
    for (int s = 0; s < want_sinks; ++s) {
      bool branch_done = false;
      for (int attempt = 0; attempt < 16 && !branch_done; ++attempt) {
        // Tap point on a vertical track strictly inside the trunk span.
        const int vtlo = static_cast<int>(std::ceil(x0 / pitch - 0.5)) + 1;
        const int vthi = static_cast<int>(std::floor(x1 / pitch - 0.5)) - 1;
        if (vthi < vtlo) break;
        const int vt = static_cast<int>(rng.uniform_int(vtlo, vthi));
        const double bx = vocc.track_coord(vt);
        const int dir = rng.bernoulli(0.5) ? 1 : -1;
        const int span = static_cast<int>(
            rng.uniform_int(1, cfg.max_branch_tracks));
        const double by = ty + dir * span * pitch;
        if (by < clr || by > cfg.die_um - clr) continue;
        const double ylo = std::min(ty, by), yhi = std::max(ty, by);
        if (!vocc.is_free(vt, ylo - clr, yhi + clr)) continue;
        // Same-layer branches must not cross foreign horizontal tracks
        // between trunk and tip (the trunk's own track is excluded: the tap
        // junction is intended). On a separate layer crossings are legal.
        if (!cfg.separate_branch_layer) {
          bool blocked = false;
          const int t0 = trunk_track + dir;
          const int t1 = trunk_track + dir * span;
          for (int t = std::min(t0, t1); t <= std::max(t0, t1); ++t) {
            if (t < 0 || t >= tracks) { blocked = true; break; }
            if (!hocc.is_free(t, bx - clr, bx + clr)) { blocked = true; break; }
          }
          if (blocked) continue;
        } else if (trunk_track + dir * span < 0 ||
                   trunk_track + dir * span >= tracks) {
          continue;  // tip must stay on the track grid for stubs
        }
        if (own_net_loop_risk(nid, geom::Point{bx, ty}, geom::Point{bx, by},
                              geom::Point{bx, ty}))
          continue;
        vocc.occupy(vt, ylo - clr, yhi + clr);
        out.add_segment(nid, branch_lid, geom::Point{bx, ty},
                        geom::Point{bx, by}, cfg.wire_width_um);
        ++stats.segments;

        // Optional horizontal stub at the branch tip; the sink sits at the
        // stub end (or the branch tip when no stub fits).
        geom::Point sink_at{bx, by};
        if (rng.bernoulli(cfg.stub_probability)) {
          const int stub_tracks = std::max(
              1, static_cast<int>(std::round(cfg.max_stub_um / pitch)));
          const int stub_span =
              static_cast<int>(rng.uniform_int(1, stub_tracks));
          const int sdir = rng.bernoulli(0.5) ? 1 : -1;
          const double sx = bx + sdir * stub_span * pitch;
          const int stub_track = trunk_track + dir * span;
          if (sx > clr && sx < cfg.die_um - clr && stub_track >= 0 &&
              stub_track < tracks) {
            const double slo = std::min(bx, sx), shi = std::max(bx, sx);
            if (hwire_free(stub_track, slo, shi, vt) &&
                !own_net_loop_risk(nid, geom::Point{bx, by},
                                   geom::Point{sx, by},
                                   geom::Point{bx, by})) {
              hocc.occupy(stub_track, slo - clr, shi + clr);
              out.add_segment(nid, lid, geom::Point{bx, by},
                              geom::Point{sx, by}, cfg.wire_width_um);
              ++stats.segments;
              sink_at = geom::Point{sx, by};
            }
          }
        }
        SinkPin sink;
        sink.location = sink_at;
        sink.load_cap_ff =
            rng.uniform_real(cfg.sink_cap_min_ff, cfg.sink_cap_max_ff);
        out.mutable_net(nid).sinks.push_back(sink);
        ++stats.sinks;
        ++made_sinks;
        branch_done = true;
      }
    }
    // Every net must drive at least one sink; fall back to the trunk end.
    if (made_sinks == 0) {
      SinkPin sink;
      sink.location = geom::Point{x1, ty};
      sink.load_cap_ff =
          rng.uniform_real(cfg.sink_cap_min_ff, cfg.sink_cap_max_ff);
      out.mutable_net(nid).sinks.push_back(sink);
      ++stats.sinks;
    }
    ++stats.nets_placed;
  }

  out.validate();
  PIL_INFO("synthetic layout: " << stats.nets_placed << " nets ("
                                << stats.nets_skipped << " skipped), "
                                << stats.segments << " segments, "
                                << stats.sinks << " sinks");
  if (stats_out) *stats_out = stats;
  return out;
}

SyntheticLayoutConfig testcase_t1_config() {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 512.0;
  cfg.num_nets = 2200;
  cfg.max_trunk_um = 128.0;
  cfg.seed = 20030601;  // fixed: testcases are part of the experiment spec
  return cfg;
}

SyntheticLayoutConfig testcase_t2_config() {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 128.0;
  cfg.num_nets = 150;
  cfg.min_trunk_um = 10.0;
  cfg.max_trunk_um = 60.0;
  cfg.dense_net_fraction = 0.6;
  cfg.seed = 20030602;
  return cfg;
}

Layout make_testcase_t1() { return generate_synthetic_layout(testcase_t1_config()); }
Layout make_testcase_t2() { return generate_synthetic_layout(testcase_t2_config()); }

}  // namespace pil::layout

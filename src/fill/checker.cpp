#include "pil/fill/checker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "pil/grid/density_map.hpp"

namespace pil::fill {

namespace {

/// Axis-aligned rect-to-rect gap (0 when overlapping/touching).
double rect_gap(const geom::Rect& a, const geom::Rect& b) {
  const double dx = std::max({a.xlo - b.xhi, b.xlo - a.xhi, 0.0});
  const double dy = std::max({a.ylo - b.yhi, b.ylo - a.yhi, 0.0});
  // Rectilinear rules measure spacing per axis; use the max-norm gap so a
  // diagonal neighbor at (g, g) counts as gap g.
  return std::max(dx, dy);
}

/// Uniform-grid spatial hash over rectangle indices.
class BucketGrid {
 public:
  BucketGrid(const geom::Rect& extent, double cell)
      : x0_(extent.xlo), y0_(extent.ylo), cell_(cell) {}

  void insert(int id, const geom::Rect& r) {
    visit_cells(r, [&](long long key) { cells_[key].push_back(id); });
  }

  /// Visit candidate ids whose cells intersect r (may repeat ids).
  template <typename F>
  void candidates(const geom::Rect& r, F&& fn) const {
    visit_cells(r, [&](long long key) {
      const auto it = cells_.find(key);
      if (it == cells_.end()) return;
      for (const int id : it->second) fn(id);
    });
  }

 private:
  template <typename F>
  void visit_cells(const geom::Rect& r, F&& fn) const {
    const int cx0 = static_cast<int>(std::floor((r.xlo - x0_) / cell_));
    const int cx1 = static_cast<int>(std::floor((r.xhi - x0_) / cell_));
    const int cy0 = static_cast<int>(std::floor((r.ylo - y0_) / cell_));
    const int cy1 = static_cast<int>(std::floor((r.yhi - y0_) / cell_));
    for (int cy = cy0; cy <= cy1; ++cy)
      for (int cx = cx0; cx <= cx1; ++cx)
        fn((static_cast<long long>(cy) << 32) ^
           static_cast<long long>(static_cast<unsigned>(cx)));
  }

  double x0_, y0_, cell_;
  std::unordered_map<long long, std::vector<int>> cells_;
};

}  // namespace

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOutsideDie: return "outside-die";
    case ViolationKind::kBufferToWire: return "buffer-to-wire";
    case ViolationKind::kFillSpacing: return "fill-spacing";
    case ViolationKind::kNotSquare: return "not-square";
    case ViolationKind::kDensityOverCap: return "density-over-cap";
    case ViolationKind::kInsideBlockage: return "inside-blockage";
  }
  return "?";
}

std::string Violation::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " at " << a;
  if (!b.empty()) os << " vs " << b;
  os << " (measure " << measure << ")";
  return os.str();
}

CheckReport check_fill(const layout::Layout& layout,
                       const std::vector<geom::Rect>& features,
                       const CheckOptions& options,
                       const grid::Dissection* dissection) {
  options.rules.validate();
  CheckReport report;
  auto add = [&](Violation v) {
    if (report.violations.size() < options.max_violations)
      report.violations.push_back(std::move(v));
  };

  const double f = options.rules.feature_um;
  const double buf = options.rules.buffer_um;
  const double gap = options.rules.gap_um;
  const geom::Rect die = layout.die();
  const double cell = std::max(4 * options.rules.pitch(), 2.0);

  // Wires on the layer, bucketed with the buffer margin.
  BucketGrid wires(die, cell);
  std::vector<geom::Rect> wire_rects;
  for (const auto& seg : layout.segments()) {
    if (seg.layer != options.layer) continue;
    wires.insert(static_cast<int>(wire_rects.size()), seg.rect().inflated(buf));
    wire_rects.push_back(seg.rect());
  }

  const std::vector<geom::Rect> keepouts =
      layout.blockages_on_layer(options.layer);

  BucketGrid fills(die, cell);
  for (std::size_t i = 0; i < features.size(); ++i)
    fills.insert(static_cast<int>(i), features[i]);

  for (std::size_t i = 0; i < features.size(); ++i) {
    const geom::Rect& r = features[i];
    ++report.features_checked;

    if (!die.contains(r))
      add({ViolationKind::kOutsideDie, r, {}, 0.0});
    if (!geom::nearly_equal(r.width(), f, 1e-9) ||
        !geom::nearly_equal(r.height(), f, 1e-9))
      add({ViolationKind::kNotSquare, r, {}, r.width()});

    for (const geom::Rect& ko : keepouts) {
      const double g = rect_gap(r, ko);
      if (g < buf - 1e-9) add({ViolationKind::kInsideBlockage, r, ko, g});
    }

    // Bucket visits can repeat an id (one rect, many cells): dedupe.
    std::vector<int> seen;
    auto once = [&](int id) {
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) return false;
      seen.push_back(id);
      return true;
    };

    wires.candidates(r.inflated(buf), [&](int w) {
      if (!once(w)) return;
      const double g = rect_gap(r, wire_rects[w]);
      if (g < buf - 1e-9)
        add({ViolationKind::kBufferToWire, r, wire_rects[w], g});
    });

    seen.clear();
    fills.candidates(r.inflated(gap), [&](int j) {
      if (static_cast<std::size_t>(j) <= i || !once(j)) return;
      const double g = rect_gap(r, features[j]);
      if (g < gap - 1e-9)
        add({ViolationKind::kFillSpacing, r, features[j], g});
    });
  }

  if (options.max_window_density >= 0) {
    PIL_REQUIRE(dissection != nullptr,
                "density check needs the dissection");
    grid::DensityMap density(*dissection);
    density.add_layer_metal(layout, options.layer);
    for (const auto& r : features) density.add_rect(r);
    for (int wy = 0; wy < dissection->windows_y(); ++wy) {
      for (int wx = 0; wx < dissection->windows_x(); ++wx) {
        const double d = density.window_density(wx, wy);
        if (d > options.max_window_density + 1e-9)
          add({ViolationKind::kDensityOverCap,
               dissection->window_rect(wx, wy),
               {},
               d});
      }
    }
  }
  return report;
}

}  // namespace pil::fill

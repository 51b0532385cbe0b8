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

/// Rectangle ids bucketed by square cells anchored at the die's lower-left
/// corner. The cells covering the die are one flat array (each cell's ids
/// ascending, in one vector); the few outside it -- a wire's buffer at the
/// die edge, a feature placed off the die -- live in a sparse map. The flat
/// array covers the die, not the rectangles' bounding box, which one
/// feature placed far off the die would stretch without bound.
class BucketGrid {
 public:
  BucketGrid(const geom::Rect& die, double cell,
             const std::vector<geom::Rect>& rects)
      : x0_(die.xlo),
        y0_(die.ylo),
        cell_(cell),
        nx_(static_cast<int>(std::floor(die.width() / cell)) + 1),
        ny_(static_cast<int>(std::floor(die.height() / cell)) + 1),
        start_(static_cast<std::size_t>(nx_) * ny_ + 1, 0),
        stamp_(rects.size(), 0) {
    // Count, prefix-sum, then fill in id order: ids ascend within a cell.
    for (const geom::Rect& r : rects)
      visit_cells(r, [&](int cx, int cy) {
        if (inside(cx, cy)) ++start_[flat(cx, cy) + 1];
      });
    for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
    ids_.resize(static_cast<std::size_t>(start_.back()));
    std::vector<int> next(start_.begin(), start_.end() - 1);
    for (int id = 0; id < static_cast<int>(rects.size()); ++id)
      visit_cells(rects[id], [&](int cx, int cy) {
        if (inside(cx, cy))
          ids_[next[flat(cx, cy)]++] = id;
        else
          outside_[key(cx, cy)].push_back(id);
      });
  }

  /// Calls fn(id) once for each id whose cells intersect r: cells row by
  /// row (cy, then cx), ids ascending within a cell, each id at its first
  /// cell. A query stamps the ids it visits, so each grid serves one query
  /// at a time.
  template <typename F>
  void candidates(const geom::Rect& r, F&& fn) {
    ++query_;
    auto visit = [&](const int* first, const int* last) {
      for (; first != last; ++first) {
        if (stamp_[*first] == query_) continue;
        stamp_[*first] = query_;
        fn(*first);
      }
    };
    visit_cells(r, [&](int cx, int cy) {
      if (inside(cx, cy)) {
        const std::size_t c = flat(cx, cy);
        visit(ids_.data() + start_[c], ids_.data() + start_[c + 1]);
      } else if (const auto it = outside_.find(key(cx, cy));
                 it != outside_.end()) {
        visit(it->second.data(), it->second.data() + it->second.size());
      }
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
      for (int cx = cx0; cx <= cx1; ++cx) fn(cx, cy);
  }

  bool inside(int cx, int cy) const {
    return cx >= 0 && cx < nx_ && cy >= 0 && cy < ny_;
  }
  std::size_t flat(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * nx_ + cx;
  }
  static long long key(int cx, int cy) {
    return (static_cast<long long>(cy) << 32) ^
           static_cast<long long>(static_cast<unsigned>(cx));
  }

  double x0_, y0_, cell_;
  int nx_, ny_;  ///< cells covering the die
  /// Flat cell c holds ids_[start_[c], start_[c + 1]).
  std::vector<int> start_;
  std::vector<int> ids_;
  std::unordered_map<long long, std::vector<int>> outside_;
  std::vector<unsigned> stamp_;  ///< per id, the last query that visited it
  unsigned query_ = 0;
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
    ++report.violations_found;
    if (report.violations.size() < options.max_violations)
      report.violations.push_back(std::move(v));
  };

  const double f = options.rules.feature_um;
  const double buf = options.rules.buffer_um;
  const double gap = options.rules.gap_um;
  const geom::Rect die = layout.die();
  const double cell = std::max(4 * options.rules.pitch(), 2.0);

  // Wires on the layer, bucketed with the buffer margin.
  std::vector<geom::Rect> wire_rects, wire_zones;
  for (const auto& seg : layout.segments()) {
    if (seg.layer != options.layer) continue;
    wire_rects.push_back(seg.rect());
    wire_zones.push_back(seg.rect().inflated(buf));
  }
  BucketGrid wires(die, cell, wire_zones);
  BucketGrid fills(die, cell, features);

  const std::vector<geom::Rect> keepouts =
      layout.blockages_on_layer(options.layer);

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

    wires.candidates(r.inflated(buf), [&](int w) {
      const double g = rect_gap(r, wire_rects[w]);
      if (g < buf - 1e-9)
        add({ViolationKind::kBufferToWire, r, wire_rects[w], g});
    });

    fills.candidates(r.inflated(gap), [&](int j) {
      if (static_cast<std::size_t>(j) <= i) return;
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

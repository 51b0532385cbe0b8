#include "pil/grid/density_map.hpp"

#include <algorithm>

namespace pil::grid {

namespace {

/// Every rect on `layer` that counts toward window density, in the one
/// accumulation order: the drawn wires, then the metal blockages.
template <typename F>
void for_each_metal_rect(const layout::Layout& layout, layout::LayerId layer,
                         F&& fn) {
  for (const auto& seg : layout.segments())
    if (seg.layer == layer) fn(seg.rect());
  for (const auto& b : layout.blockages())
    if (b.layer == layer && b.is_metal) fn(b.rect);
}

}  // namespace

void DensityMap::add_layer_metal(const layout::Layout& layout,
                                 layout::LayerId layer) {
  for_each_metal_rect(layout, layer,
                      [this](const geom::Rect& r) { add_rect(r); });
}

template <typename Keep>
void DensityMap::add_rect_if(const geom::Rect& r, Keep&& keep) {
  TileIndex lo, hi;
  if (!dis_->tiles_overlapping(r, lo, hi)) return;
  for (int iy = lo.iy; iy <= hi.iy; ++iy) {
    for (int ix = lo.ix; ix <= hi.ix; ++ix) {
      const TileIndex t{ix, iy};
      const int flat = dis_->tile_flat(t);
      if (!keep(flat)) continue;
      const double a = geom::overlap_area(r, dis_->tile_rect(t));
      if (a > 0) tile_area_[flat] += a;
    }
  }
}

void DensityMap::add_rect(const geom::Rect& r) {
  add_rect_if(r, [](int) { return true; });
}

void DensityMap::add_rect(const geom::Rect& r, const std::vector<char>& only) {
  PIL_REQUIRE(only.size() == tile_area_.size(), "tile mask size mismatch");
  add_rect_if(r, [&only](int flat) { return only[flat] != 0; });
}

void DensityMap::reset_tiles(const DensityMap& base,
                             const std::vector<char>& only) {
  PIL_REQUIRE(base.tile_area_.size() == tile_area_.size() &&
                  only.size() == tile_area_.size(),
              "tile mask size mismatch");
  for (std::size_t f = 0; f < tile_area_.size(); ++f)
    if (only[f]) tile_area_[f] = base.tile_area_[f];
}

void DensityMap::recompute_tiles(const layout::Layout& layout,
                                 layout::LayerId layer,
                                 const std::vector<int>& tiles_flat) {
  std::vector<char> affected(tile_area_.size(), 0);
  for (const int f : tiles_flat) {
    PIL_REQUIRE(f >= 0 && f < static_cast<int>(tile_area_.size()),
                "tile index out of range");
    affected[f] = 1;
    tile_area_[f] = 0.0;
  }
  // Each affected tile sees the rects in add_layer_metal's order, so its
  // accumulation sequence matches a full rebuild exactly.
  for_each_metal_rect(layout, layer, [&](const geom::Rect& r) {
    add_rect(r, affected);
  });
}

void DensityMap::add_area(TileIndex t, double area) {
  PIL_REQUIRE(area >= 0, "negative feature area");
  tile_area_[dis_->tile_flat(t)] += area;
}

double DensityMap::window_area(int wx, int wy) const {
  PIL_REQUIRE(wx >= 0 && wx < dis_->windows_x() && wy >= 0 &&
                  wy < dis_->windows_y(),
              "window index out of range");
  double sum = 0.0;
  for (int iy = wy; iy < wy + dis_->r(); ++iy)
    for (int ix = wx; ix < wx + dis_->r(); ++ix)
      sum += tile_area_[dis_->tile_flat(TileIndex{ix, iy})];
  return sum;
}

double DensityMap::window_density(int wx, int wy) const {
  const geom::Rect w = dis_->window_rect(wx, wy);
  PIL_ASSERT(w.area() > 0, "degenerate window");
  return window_area(wx, wy) / w.area();
}

std::string render_density_ascii(const DensityMap& density, double lo,
                                 double hi) {
  const Dissection& dis = density.dissection();
  PIL_REQUIRE(dis.num_windows() > 0, "dissection has no windows");
  if (lo < 0 || hi < 0) {
    const DensityStats s = density.stats();
    if (lo < 0) lo = s.min_density;
    if (hi < 0) hi = s.max_density;
  }
  static const char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp)) - 2;
  const double span = std::max(hi - lo, 1e-12);

  std::string out;
  out.reserve(static_cast<std::size_t>(dis.windows_y()) *
              (dis.windows_x() + 1));
  for (int wy = dis.windows_y() - 1; wy >= 0; --wy) {
    for (int wx = 0; wx < dis.windows_x(); ++wx) {
      const double t = (density.window_density(wx, wy) - lo) / span;
      const int level =
          std::clamp(static_cast<int>(t * kLevels + 0.5), 0, kLevels);
      out.push_back(kRamp[level]);
    }
    out.push_back('\n');
  }
  return out;
}

DensityStats DensityMap::stats() const {
  DensityStats s;
  const int nx = dis_->windows_x();
  const int ny = dis_->windows_y();
  PIL_REQUIRE(nx > 0 && ny > 0, "dissection has no windows");
  bool first = true;
  double sum = 0.0;
  for (int wy = 0; wy < ny; ++wy) {
    for (int wx = 0; wx < nx; ++wx) {
      const double d = window_density(wx, wy);
      if (first) {
        s.min_density = s.max_density = d;
        first = false;
      } else {
        s.min_density = std::min(s.min_density, d);
        s.max_density = std::max(s.max_density, d);
      }
      sum += d;
    }
  }
  s.mean_density = sum / (static_cast<double>(nx) * ny);
  return s;
}

}  // namespace pil::grid

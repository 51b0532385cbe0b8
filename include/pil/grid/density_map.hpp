#pragma once
/// \file density_map.hpp
/// Per-tile feature-area accounting and window density statistics over a
/// fixed r-dissection. This is the quantity CMP density rules constrain and
/// the quantity all fill methods must keep identical (the paper compares
/// methods at *identical density control quality*).

#include <string>
#include <vector>

#include "pil/grid/dissection.hpp"
#include "pil/layout/layout.hpp"

namespace pil::grid {

/// Summary statistics of window densities (density = feature area / window
/// area, in [0, 1]).
struct DensityStats {
  double min_density = 0.0;
  double max_density = 0.0;
  double mean_density = 0.0;
  /// Max - min over all windows: the "variation" minimized by min-var fill.
  double variation() const { return max_density - min_density; }
};

class DensityMap {
 public:
  explicit DensityMap(const Dissection& dissection)
      : dis_(&dissection), tile_area_(dissection.num_tiles(), 0.0) {}

  const Dissection& dissection() const { return *dis_; }

  /// Accumulate everything on `layer` that counts toward window density:
  /// the drawn area of every segment, then every metal blockage (a macro's
  /// own metalization counts; a pure keep-out does not). This is the one
  /// rule for a layer's density; every flow, the checker and the CLI use it.
  void add_layer_metal(const layout::Layout& layout, layout::LayerId layer);

  /// Accumulate one rectangle of feature area (wire or fill).
  void add_rect(const geom::Rect& r);

  /// add_rect restricted to the tiles flagged in `only` (one flag per flat
  /// tile): a flagged tile gains exactly what add_rect would add to it, and
  /// every other tile is left untouched.
  void add_rect(const geom::Rect& r, const std::vector<char>& only);

  /// Set the tiles flagged in `only` to `base`'s areas (`base` must be over
  /// the same dissection); every other tile is left untouched.
  void reset_tiles(const DensityMap& base, const std::vector<char>& only);

  /// Recompute the wire + metal-blockage area of a subset of tiles from
  /// scratch, leaving every other tile untouched. The affected tiles are
  /// re-accumulated in the exact order add_layer_metal uses, so the result
  /// is bit-identical to a fresh map of the (edited) layout -- floating-point
  /// accumulation order matters, which is why this re-adds rather than
  /// subtracting deltas.
  void recompute_tiles(const layout::Layout& layout, layout::LayerId layer,
                       const std::vector<int>& tiles_flat);

  /// Directly add `area` um^2 to one tile (used when fill features are
  /// accounted per tile rather than per rectangle).
  void add_area(TileIndex t, double area);

  double tile_area(TileIndex t) const { return tile_area_[dis_->tile_flat(t)]; }
  double tile_area_flat(int flat) const { return tile_area_[flat]; }
  const std::vector<double>& tile_areas() const { return tile_area_; }

  /// Feature area inside window (wx, wy): sum of its r x r tile areas.
  double window_area(int wx, int wy) const;

  /// Density (area fraction) of window (wx, wy).
  double window_density(int wx, int wy) const;

  /// Stats over all windows of the dissection.
  DensityStats stats() const;

 private:
  /// The one rect-to-tile loop: add `r`'s overlap to every tile it covers
  /// with positive area for which `keep(flat)` holds, in (iy, ix) order.
  template <typename Keep>
  void add_rect_if(const geom::Rect& r, Keep&& keep);

  const Dissection* dis_;
  std::vector<double> tile_area_;
};

/// Render the window-density field as an ASCII heatmap (one character per
/// window, highest y-row first so the picture matches layout coordinates).
/// `lo`/`hi` clamp the color scale; pass negative values to auto-scale to
/// the map's min/max. Ramp: " .:-=+*#%@" from lo to hi.
std::string render_density_ascii(const DensityMap& density, double lo = -1,
                                 double hi = -1);

}  // namespace pil::grid

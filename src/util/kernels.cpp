/// \file kernels.cpp
/// The kernel loops. Each output element's expression is the one its doc
/// comment in kernels.hpp states, operation for operation.

#include "pil/util/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace pil::util {

void window_sums(const double* tile, int tiles_x, int tiles_y, int r,
                 double* out) {
  const int nwx = tiles_x - r + 1;
  const int nwy = tiles_y - r + 1;
  for (int wy = 0; wy < nwy; ++wy) {
    for (int wx = 0; wx < nwx; ++wx) {
      double sum = 0.0;
      for (int iy = wy; iy < wy + r; ++iy)
        for (int ix = wx; ix < wx + r; ++ix)
          sum += tile[static_cast<std::size_t>(iy) * tiles_x + ix];
      out[static_cast<std::size_t>(wy) * nwx + wx] = sum;
    }
  }
}

void div2(const double* num, const double* den, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = num[i] / den[i];
}

void min_max(const double* a, std::size_t n, double* mn, double* mx) {
  double lo = a[0];
  double hi = a[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, a[i]);
    hi = std::max(hi, a[i]);
  }
  *mn = lo;
  *mx = hi;
}

void add2(const double* a, const double* b, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void entry_res(const double* base, const double* slope, const double* ux,
               const double* uy, const double* qx, const double* qy,
               std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = base[i] +
             slope[i] * (std::fabs(ux[i] - qx[i]) + std::fabs(uy[i] - qy[i]));
}

void weighted_pair(const double* wb, const double* rb, const double* wa,
                   const double* ra, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = wb[i] * rb[i] + wa[i] * ra[i];
}

void exact_pair(const double* sb, const double* rb, const double* sa,
                const double* ra, const double* ob, const double* oa,
                std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = sb[i] * rb[i] + sa[i] * ra[i] + ob[i] + oa[i];
}

void scaled_scores(const double* cap_ff, const double* rf, double s,
                   std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = cap_ff[i] * s * rf[i];
}

void delta_scores(const double* hi, const double* lo, const double* rf,
                  double s, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (hi[i] - lo[i]) * s * rf[i];
}

bool block_any_above(const double* grid, int stride, int x0, int x1, int y0,
                     int y1, double add, double threshold) {
  for (int y = y0; y <= y1; ++y) {
    const double* row = grid + static_cast<std::size_t>(y) * stride;
    for (int x = x0; x <= x1; ++x)
      if (row[x] + add > threshold) return true;
  }
  return false;
}

void block_add_scalar(double* grid, int stride, int x0, int x1, int y0,
                      int y1, double v) {
  for (int y = y0; y <= y1; ++y) {
    double* row = grid + static_cast<std::size_t>(y) * stride;
    for (int x = x0; x <= x1; ++x) row[x] += v;
  }
}

void site_rows(int n, double y0, double pitch, double half, double die_ylo,
               double tile_um, int max_row, std::int32_t* out) {
  for (int i = 0; i < n; ++i) {
    const double cy = (y0 + i * pitch) + half;
    const int row = static_cast<int>(std::floor((cy - die_ylo) / tile_um));
    out[i] = std::clamp(row, 0, max_row);
  }
}

}  // namespace pil::util

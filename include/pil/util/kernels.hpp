#pragma once
/// \file kernels.hpp
/// Loop kernels for the prep and solver hot paths. Callers gather their
/// inputs into structure-of-arrays columns once per tile (PrepColumns,
/// the greedy/convex scoring buffers, the targeter's window grid) and make
/// one call per column set instead of one expression per element.
///
/// Determinism contract: each kernel's per-element floating-point
/// expression tree, given in its doc comment, is exactly the inline code
/// it replaced, so the kernels leave every placement bit-identical
/// (locked by the SimdFlow golden-fingerprint tests; the trees themselves by
/// tests/test_kernels.cpp). So, when editing or adding a kernel:
///   * no FMA contraction -- `a*b + c*d` rounds after each multiply and
///     after the add; never use std::fma or build with FMA enabled;
///   * no reassociated reductions -- a sum accumulates in the stated
///     order (window_sums: iy outer, ix inner), never split into partial
///     sums;
///   * divisions stay divisions -- never rewritten as reciprocal
///     multiplies.
///
/// `n == 0` calls are no-ops. Output ranges must not alias inputs unless a
/// kernel says otherwise.

#include <cstddef>
#include <cstdint>

namespace pil::util {

/// Sliding r x r window sums over a row-major tiles_x x tiles_y grid:
/// out[wy * (tiles_x - r + 1) + wx] = sum of tile[iy][ix] for
/// iy in [wy, wy+r), ix in [wx, wx+r), accumulated in exactly that
/// (iy outer, ix inner) order -- the DensityMap::window_area order.
void window_sums(const double* tile, int tiles_x, int tiles_y, int r,
                 double* out);

/// out[i] = num[i] / den[i].
void div2(const double* num, const double* den, std::size_t n, double* out);

/// *mn / *mx = min / max over a[0..n), folded in index order with
/// std::min / std::max; requires n >= 1.
void min_max(const double* a, std::size_t n, double* mn, double* mx);

/// out[i] = a[i] + b[i].
void add2(const double* a, const double* b, std::size_t n, double* out);

/// Elmore entry resistance at a column crossing, matching
/// WirePiece::res_at(q) = upstream_res + res_per_um * manhattan(up, q):
/// out[i] = base[i] + slope[i] * (|ux[i] - qx[i]| + |uy[i] - qy[i]|).
void entry_res(const double* base, const double* slope, const double* ux,
               const double* uy, const double* qx, const double* qy,
               std::size_t n, double* out);

/// out[i] = (wb[i] * rb[i]) + (wa[i] * ra[i])  (criticality-weighted
/// two-sided resistance factor).
void weighted_pair(const double* wb, const double* rb, const double* wa,
                   const double* ra, std::size_t n, double* out);

/// out[i] = (((sb[i] * rb[i]) + (sa[i] * ra[i])) + ob[i]) + oa[i]
/// (exact-delay resistance factor with off-path sums).
void exact_pair(const double* sb, const double* rb, const double* sa,
                const double* ra, const double* ob, const double* oa,
                std::size_t n, double* out);

/// Greedy column keys: out[i] = (cap_ff[i] * s) * rf[i].
void scaled_scores(const double* cap_ff, const double* rf, double s,
                   std::size_t n, double* out);

/// Convex first-feature marginals: out[i] = ((hi[i] - lo[i]) * s) * rf[i].
void delta_scores(const double* hi, const double* lo, const double* rf,
                  double s, std::size_t n, double* out);

/// Any grid[y * stride + x] + add > threshold over the inclusive block
/// x in [x0, x1], y in [y0, y1]? (The MC targeter's covering-window
/// feasibility test.) Empty blocks (x0 > x1 or y0 > y1) return false.
bool block_any_above(const double* grid, int stride, int x0, int x1, int y0,
                     int y1, double add, double threshold);

/// grid[y * stride + x] += v over the same inclusive block.
void block_add_scalar(double* grid, int stride, int x0, int x1, int y0,
                      int y1, double v);

/// Per-site dissection rows for a slack column's site stack:
/// out[i] = clamp((int)floor((((y0 + i*pitch) + half) - die_ylo) /
/// tile_um), 0, max_row), matching Dissection::tile_at on the site
/// centerline. Every intermediate must fit the int range (true for any
/// site inside the die).
void site_rows(int n, double y0, double pitch, double half, double die_ylo,
               double tile_um, int max_row, std::int32_t* out);

}  // namespace pil::util

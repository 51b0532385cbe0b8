#include "pil/fill/slack.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "pil/geom/interval.hpp"
#include "pil/util/log.hpp"

namespace pil::fill {

namespace {

using geom::Interval;
using geom::Rect;
using layout::Orientation;
using rctree::WirePiece;

/// Global x site grid: column c's feature occupies
/// [die.xlo + gap/2 + c*pitch, +feature]. Columns keep gap/2 from the die
/// edge so features never touch the boundary.
struct ColumnGrid {
  double origin;  // x_lo of column 0
  double pitch;
  double feature;
  int count;

  ColumnGrid(const Rect& die, const FillRules& rules)
      : origin(die.xlo + rules.gap_um / 2),
        pitch(rules.pitch()),
        feature(rules.feature_um) {
    count = 0;
    while (origin + count * pitch + feature + rules.gap_um / 2 <=
           die.xhi + geom::kEps)
      ++count;
  }

  double x_lo(int c) const { return origin + c * pitch; }
  double x_center(int c) const { return x_lo(c) + feature / 2; }

  /// Columns whose footprint intersects [lo, hi] (clamped to the grid).
  void overlapping(double lo, double hi, int& c0, int& c1) const {
    c0 = static_cast<int>(std::ceil((lo - feature - origin) / pitch +
                                    geom::kEps));
    c1 = static_cast<int>(std::floor((hi - origin) / pitch - geom::kEps));
    c0 = std::max(c0, 0);
    c1 = std::min(c1, count - 1);
  }

  /// Columns whose footprint lies fully inside [lo, hi].
  void inside(double lo, double hi, int& c0, int& c1) const {
    c0 = static_cast<int>(std::ceil((lo - origin) / pitch - geom::kEps));
    c1 = static_cast<int>(
        std::floor((hi - feature - origin) / pitch + geom::kEps));
    c0 = std::max(c0, 0);
    c1 = std::min(c1, count - 1);
  }
};

struct ColumnState {
  double start = 0.0;       ///< top edge of the previous boundary
  BoundKind kind = BoundKind::kDieEdge;
  int piece = -1;
};

/// Emit the gap between `below` and the boundary starting at `above_bottom`
/// as zero or more slack columns of site column `c` (one per free sub-run
/// left by the blockage intervals). Shared by the per-tile region scan and
/// the per-column global scan so both produce identical columns.
void emit_gap(const ColumnGrid& grid, int c, const ColumnState& below,
              BoundKind above_kind, int above_piece, double above_bottom,
              const geom::IntervalSet& blocked, const FillRules& rules,
              SlackMode mode, std::vector<SlackColumn>& out) {
  // Mode I keeps only gaps bounded by two active lines.
  if (mode == SlackMode::kI &&
      (below.kind != BoundKind::kLine || above_kind != BoundKind::kLine))
    return;
  const double b = rules.buffer_um;
  SlackColumn col;
  col.col_index = c;
  col.x_lo = grid.x_lo(c);
  col.x_center = grid.x_center(c);
  col.below = below.kind;
  col.below_piece = below.piece;
  col.above = above_kind;
  col.above_piece = above_piece;
  col.gap_um = above_bottom - below.start;
  const double usable_lo =
      below.start + (below.kind == BoundKind::kLine ? b : rules.gap_um / 2);
  const double usable_hi =
      above_bottom - (above_kind == BoundKind::kLine ? b : rules.gap_um / 2);
  if (usable_hi - usable_lo < rules.feature_um) return;
  // Vertical wires pierce the gap into sub-runs. Each sub-run becomes its
  // own column sharing the bounding lines and line distance (the series
  // parallel-plate model only sees the feature count in the gap).
  for (const Interval& free : blocked.gaps(Interval{usable_lo, usable_hi})) {
    col.span_lo = free.lo;
    col.span_hi = free.hi;
    col.capacity = rules.capacity_in_span(free.length());
    if (col.capacity > 0) out.push_back(col);
  }
}

/// Scan one rectangular region and append the slack columns found. Piece
/// rects are clipped to the region. `edge_kind` labels the region's own
/// y-boundaries. `blocked` holds, per global column, the y-intervals made
/// unusable by vertical wires (already buffer-inflated). Used by modes
/// I/II (per-tile regions); mode III goes through GlobalSlackScan.
void scan_region(const Rect& region, const ColumnGrid& grid,
                 const std::vector<std::pair<int, Rect>>& hpieces_sorted,
                 const std::vector<geom::IntervalSet>& blocked,
                 const FillRules& rules, SlackMode mode, BoundKind edge_kind,
                 std::vector<SlackColumn>& out) {
  int c_begin, c_end;
  grid.inside(region.xlo, region.xhi, c_begin, c_end);
  if (c_begin > c_end) return;

  std::vector<ColumnState> state(c_end - c_begin + 1);
  for (auto& s : state) {
    s.start = region.ylo;
    s.kind = edge_kind;
    s.piece = -1;
  }

  const double b = rules.buffer_um;

  for (const auto& [piece_idx, rect] : hpieces_sorted) {
    const Rect clipped = geom::intersect(rect, region);
    if (clipped.empty() || clipped.width() <= 0) continue;
    int c0, c1;
    grid.overlapping(clipped.xlo - b, clipped.xhi + b, c0, c1);
    c0 = std::max(c0, c_begin);
    c1 = std::min(c1, c_end);
    for (int c = c0; c <= c1; ++c) {
      ColumnState& s = state[c - c_begin];
      if (clipped.ylo > s.start + geom::kEps)
        emit_gap(grid, c, s, BoundKind::kLine, piece_idx, clipped.ylo,
                 blocked[c], rules, mode, out);
      if (clipped.yhi > s.start) {
        s.start = clipped.yhi;
        s.kind = BoundKind::kLine;
        s.piece = piece_idx;
      }
    }
  }
  for (int c = c_begin; c <= c_end; ++c) {
    const ColumnState& s = state[c - c_begin];
    if (region.yhi > s.start + geom::kEps)
      emit_gap(grid, c, s, edge_kind, -1, region.yhi, blocked[c], rules, mode,
               out);
  }
}

}  // namespace

const char* to_string(SlackMode m) {
  switch (m) {
    case SlackMode::kI: return "SlackColumn-I";
    case SlackMode::kII: return "SlackColumn-II";
    case SlackMode::kIII: return "SlackColumn-III";
  }
  return "?";
}

SlackColumns::SlackColumns(std::vector<SlackColumn> columns,
                           std::vector<std::vector<TileColumnPart>> tile_parts,
                           bool transposed)
    : columns_(std::move(columns)),
      tile_parts_(std::move(tile_parts)),
      transposed_(transposed) {
  for (const auto& parts : tile_parts_)
    for (const auto& part : parts) total_capacity_ += part.num_sites;
}

geom::Rect SlackColumns::site_rect(const SlackColumn& col, int site,
                                   const FillRules& rules) const {
  const double y = col.site_y(site, rules);
  const geom::Rect r{col.x_lo, y, col.x_lo + rules.feature_um,
                     y + rules.feature_um};
  if (!transposed_) return r;
  return geom::Rect{r.ylo, r.xlo, r.yhi, r.xhi};
}

geom::Point SlackColumns::column_cross_point(
    const SlackColumn& col, const rctree::WirePiece& piece) const {
  // In the scan frame the column sits at cross coordinate x_center; project
  // it onto the line in real coordinates.
  return transposed_ ? geom::Point{piece.up.x, col.x_center}
                     : geom::Point{col.x_center, piece.up.y};
}

const std::vector<TileColumnPart>& SlackColumns::tile_parts(
    int tile_flat) const {
  PIL_REQUIRE(tile_flat >= 0 && tile_flat < num_tiles(),
              "tile index out of range");
  return tile_parts_[tile_flat];
}

int SlackColumns::tile_capacity(int tile_flat) const {
  int sum = 0;
  for (const auto& part : tile_parts(tile_flat)) sum += part.num_sites;
  return sum;
}

std::vector<rctree::WirePiece> flatten_pieces(
    const std::vector<rctree::RcTree>& trees) {
  std::vector<WirePiece> out;
  std::size_t total = 0;
  for (const auto& t : trees) total += t.pieces().size();
  out.reserve(total);
  for (const auto& t : trees)
    out.insert(out.end(), t.pieces().begin(), t.pieces().end());
  return out;
}

/// The scanner's state: one SlackColumns in canonical order plus, per
/// x-site-column group g (site column c_begin + g), the flat index of its
/// first column.
struct GlobalSlackScan::Impl {
  /// One tile's share of a column, as a fresh scan emits it; `column`
  /// indexes the vector the scan appended its columns to.
  struct Part {
    int tile_flat;  ///< real (dissection-frame) flat tile id
    int column;
    int first_site;
    int num_sites;
  };

  const grid::Dissection* dissection;  // real frame
  layout::LayerId layer;
  FillRules rules;
  bool transposed = false;
  Rect die;                  // scan frame
  grid::Dissection scan_dis; // scan frame
  ColumnGrid grid;
  int c_begin = 0, c_end = -1;  // site columns fully inside the die
  Orientation routing_dir = Orientation::kHorizontal;
  /// Blockage-only intervals per global column (blockages are not part of
  /// the edit model, so these never change after construction).
  std::vector<geom::IntervalSet> blocked_static;
  SlackColumns slack;        // the one copy, canonical order
  std::vector<int> offsets;  // flat column offset per group (+1 total)

  Impl(const layout::Layout& layout, const grid::Dissection& dis,
       layout::LayerId layer_in, const FillRules& rules_in)
      : dissection(&dis),
        layer(layer_in),
        rules(rules_in),
        transposed(layout.layer(layer_in).preferred_direction ==
                   Orientation::kVertical),
        die(xf(layout.die())),
        scan_dis(transposed
                     ? grid::Dissection(die, dis.window_um(), dis.r())
                     : dis),
        grid(die, rules_in),
        slack({}, std::vector<std::vector<TileColumnPart>>(dis.num_tiles()),
              transposed) {
    rules.validate();
    routing_dir = transposed ? Orientation::kVertical
                             : Orientation::kHorizontal;
    grid.inside(die.xlo, die.xhi, c_begin, c_end);
    blocked_static.assign(grid.count, {});
    const double b = rules.buffer_um;
    for (const Rect& v0 : layout.blockages_on_layer(layer)) {
      const Rect v = xf(v0);
      int c0, c1;
      grid.overlapping(v.xlo - b, v.xhi + b, c0, c1);
      for (int c = c0; c <= c1; ++c)
        blocked_static[c].insert(v.ylo - b, v.yhi + b);
    }
    offsets.assign(num_xcols() + 1, 0);
  }

  Rect xf(const Rect& r) const {
    return transposed ? Rect{r.ylo, r.xlo, r.yhi, r.xhi} : r;
  }
  int num_xcols() const { return c_begin > c_end ? 0 : c_end - c_begin + 1; }

  int real_flat(int scan_flat) const {
    if (!transposed) return scan_flat;
    const grid::TileIndex t = scan_dis.tile_unflat(scan_flat);
    return dissection->tile_flat(grid::TileIndex{t.iy, t.ix});
  }

  /// Sort key of a routing-direction piece: (scan-frame ylo, net, index).
  /// The net/index tie-break keeps the processing order -- and therefore
  /// which of two co-track pieces bounds a gap -- stable when edits to one
  /// net renumber the flattened piece array of the others.
  static bool piece_before(double ylo_a, const WirePiece& a, int ia,
                           double ylo_b, const WirePiece& b, int ib) {
    if (ylo_a != ylo_b) return ylo_a < ylo_b;
    if (a.net != b.net) return a.net < b.net;
    return ia < ib;
  }

  /// Run the column state machine for site column `c` over `pidx` (piece
  /// indices sorted by piece_before), appending its columns in ascending-y
  /// order to `cols` and their tile split to `parts`.
  void scan_one_column(int c, const std::vector<int>& pidx,
                       const std::vector<WirePiece>& pieces,
                       const geom::IntervalSet& blocked,
                       std::vector<SlackColumn>& cols,
                       std::vector<Part>& parts) {
    const std::size_t first = cols.size();
    const double b = rules.buffer_um;
    ColumnState s;
    s.start = die.ylo;
    s.kind = BoundKind::kDieEdge;
    s.piece = -1;
    for (const int idx : pidx) {
      const Rect clipped = geom::intersect(xf(pieces[idx].rect()), die);
      if (clipped.empty() || clipped.width() <= 0) continue;
      int c0, c1;
      grid.overlapping(clipped.xlo - b, clipped.xhi + b, c0, c1);
      if (c < c0 || c > c1) continue;
      if (clipped.ylo > s.start + geom::kEps)
        emit_gap(grid, c, s, BoundKind::kLine, idx, clipped.ylo, blocked,
                 rules, SlackMode::kIII, cols);
      if (clipped.yhi > s.start) {
        s.start = clipped.yhi;
        s.kind = BoundKind::kLine;
        s.piece = idx;
      }
    }
    if (die.yhi > s.start + geom::kEps)
      emit_gap(grid, c, s, BoundKind::kDieEdge, -1, die.yhi, blocked, rules,
               SlackMode::kIII, cols);

    // Split each column's site stack across the tile rows it crosses.
    for (std::size_t ci = first; ci < cols.size(); ++ci) {
      const SlackColumn& col = cols[ci];
      int run_first = 0;
      int run_tile = -1;
      for (int i = 0; i < col.capacity; ++i) {
        const double cy = col.site_y(i, rules) + rules.feature_um / 2;
        const grid::TileIndex t =
            scan_dis.tile_at(geom::Point{col.x_center, cy});
        const int flat = real_flat(scan_dis.tile_flat(t));
        if (flat != run_tile) {
          if (run_tile >= 0)
            parts.push_back(Part{run_tile, static_cast<int>(ci), run_first,
                                 i - run_first});
          run_tile = flat;
          run_first = i;
        }
      }
      if (run_tile >= 0)
        parts.push_back(Part{run_tile, static_cast<int>(ci), run_first,
                             col.capacity - run_first});
    }
  }

  /// Bucket routing-direction pieces into the marked columns (all when
  /// `mark` is null) and collect blockage intervals from cross-direction
  /// pieces. Buckets come out sorted by piece_before.
  void bucket_pieces(const std::vector<WirePiece>& pieces,
                     const std::vector<char>* mark,
                     std::vector<std::vector<int>>& hbucket,
                     std::vector<geom::IntervalSet>& blocked) {
    const double b = rules.buffer_um;
    std::vector<double> key_ylo(pieces.size(), 0.0);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (pieces[i].layer != layer) continue;
      const Rect r = xf(pieces[i].rect());
      key_ylo[i] = r.ylo;
      int c0, c1;
      if (pieces[i].orientation == routing_dir) {
        const Rect clipped = geom::intersect(r, die);
        if (clipped.empty() || clipped.width() <= 0) continue;
        grid.overlapping(clipped.xlo - b, clipped.xhi + b, c0, c1);
        c0 = std::max(c0, c_begin);
        c1 = std::min(c1, c_end);
        for (int c = c0; c <= c1; ++c) {
          const int g = c - c_begin;
          if (!mark || (*mark)[g]) hbucket[g].push_back(static_cast<int>(i));
        }
      } else {
        grid.overlapping(r.xlo - b, r.xhi + b, c0, c1);
        for (int c = std::max(c0, c_begin); c <= std::min(c1, c_end); ++c) {
          const int g = c - c_begin;
          if (!mark || (*mark)[g])
            blocked[g].insert(r.ylo - b, r.yhi + b);
        }
      }
    }
    auto cmp = [&](int a, int b2) {
      return piece_before(key_ylo[a], pieces[a], a, key_ylo[b2], pieces[b2],
                          b2);
    };
    for (int g = 0; g < num_xcols(); ++g)
      if (!mark || (*mark)[g])
        std::sort(hbucket[g].begin(), hbucket[g].end(), cmp);
  }
};

GlobalSlackScan::GlobalSlackScan(const layout::Layout& layout,
                                 const grid::Dissection& dissection,
                                 layout::LayerId layer, const FillRules& rules)
    : impl_(std::make_unique<Impl>(layout, dissection, layer, rules)) {}

GlobalSlackScan::~GlobalSlackScan() = default;
GlobalSlackScan::GlobalSlackScan(GlobalSlackScan&&) noexcept = default;
GlobalSlackScan& GlobalSlackScan::operator=(GlobalSlackScan&&) noexcept =
    default;

void GlobalSlackScan::build(const std::vector<rctree::WirePiece>& pieces) {
  Impl& im = *impl_;
  const int n = im.num_xcols();
  std::vector<std::vector<int>> hbucket(n);
  std::vector<geom::IntervalSet> blocked(n);
  for (int g = 0; g < n; ++g) blocked[g] = im.blocked_static[im.c_begin + g];
  im.bucket_pieces(pieces, nullptr, hbucket, blocked);

  std::vector<SlackColumn>& columns = im.slack.columns_;
  std::vector<Impl::Part> parts;
  columns.clear();
  for (int g = 0; g < n; ++g) {
    im.offsets[g] = static_cast<int>(columns.size());
    im.scan_one_column(im.c_begin + g, hbucket[g], pieces, blocked[g],
                       columns, parts);
  }
  im.offsets[n] = static_cast<int>(columns.size());

  // Parts come out in canonical column order, so each tile's list does too.
  std::vector<std::vector<TileColumnPart>>& tile_parts = im.slack.tile_parts_;
  std::vector<int> parts_per_tile(tile_parts.size(), 0);
  for (const Impl::Part& p : parts) ++parts_per_tile[p.tile_flat];
  long long capacity = 0;
  for (std::size_t t = 0; t < tile_parts.size(); ++t) {
    tile_parts[t].clear();
    tile_parts[t].reserve(parts_per_tile[t]);
  }
  for (const Impl::Part& p : parts) {
    tile_parts[p.tile_flat].push_back(
        TileColumnPart{p.column, p.first_site, p.num_sites});
    capacity += p.num_sites;
  }
  im.slack.total_capacity_ = capacity;
}

GlobalSlackScan::RescanResult GlobalSlackScan::rescan(
    const std::vector<rctree::WirePiece>& pieces,
    const std::vector<geom::Rect>& changed_real) {
  Impl& im = *impl_;
  const int n = im.num_xcols();
  const double b = im.rules.buffer_um;
  RescanResult res;

  std::vector<char> mark(n, 0);
  for (const Rect& r0 : changed_real) {
    const Rect r = im.xf(r0);
    int c0, c1;
    im.grid.overlapping(r.xlo - b, r.xhi + b, c0, c1);
    for (int c = std::max(c0, im.c_begin); c <= std::min(c1, im.c_end); ++c)
      mark[c - im.c_begin] = 1;
  }

  std::vector<std::vector<int>> hbucket(n);
  std::vector<geom::IntervalSet> blocked(n);
  for (int g = 0; g < n; ++g)
    if (mark[g]) blocked[g] = im.blocked_static[im.c_begin + g];
  im.bucket_pieces(pieces, &mark, hbucket, blocked);

  // Scan the marked x-columns into fresh storage and lay out the new
  // offsets; the old columns stay in place until every part is compared.
  std::vector<SlackColumn>& columns = im.slack.columns_;
  std::vector<SlackColumn> fresh;
  std::vector<Impl::Part> fresh_parts;
  std::vector<int> fresh_begin(n, 0);
  std::vector<int> new_offsets(n + 1, 0);
  long long capacity_delta = 0;
  for (int g = 0; g < n; ++g) {
    int size = im.offsets[g + 1] - im.offsets[g];
    if (mark[g]) {
      ++res.xcols_rescanned;
      for (int f = im.offsets[g]; f < im.offsets[g + 1]; ++f)
        capacity_delta -= columns[f].capacity;
      fresh_begin[g] = static_cast<int>(fresh.size());
      im.scan_one_column(im.c_begin + g, hbucket[g], pieces, blocked[g],
                         fresh, fresh_parts);
      size = static_cast<int>(fresh.size()) - fresh_begin[g];
      for (int f = fresh_begin[g]; f < fresh_begin[g] + size; ++f)
        capacity_delta += fresh[f].capacity;
    }
    new_offsets[g + 1] = new_offsets[g] + size;
  }

  res.column_remap.assign(im.offsets[n], -1);
  for (int g = 0; g < n; ++g) {
    if (mark[g]) continue;
    const int delta = new_offsets[g] - im.offsets[g];
    for (int f = im.offsets[g]; f < im.offsets[g + 1]; ++f)
      res.column_remap[f] = f + delta;
  }
  auto fresh_index = [&](const Impl::Part& p) {
    const int g = fresh[p.column].col_index - im.c_begin;
    return new_offsets[g] + p.column - fresh_begin[g];
  };
  // Part k of a tile covers the same sites before and after when it keeps
  // its x column, span_lo (bitwise), first_site and num_sites.
  auto same_sites = [&](const TileColumnPart& old_part,
                        const Impl::Part& p) {
    const SlackColumn& a = columns[old_part.column];
    const SlackColumn& c = fresh[p.column];
    return a.col_index == c.col_index &&
           std::memcmp(&a.span_lo, &c.span_lo, sizeof a.span_lo) == 0 &&
           old_part.first_site == p.first_site &&
           old_part.num_sites == p.num_sites;
  };

  // Rewrite the part lists: a tile with parts in a rescanned x-column
  // swaps them for the fresh ones; every other part is renumbered. Fresh
  // parts are in canonical order, so a stable sort by tile keeps each
  // tile's in that order.
  std::stable_sort(fresh_parts.begin(), fresh_parts.end(),
                   [](const Impl::Part& a, const Impl::Part& c) {
                     return a.tile_flat < c.tile_flat;
                   });
  const int first_changed = im.offsets[static_cast<int>(
      std::find(mark.begin(), mark.end(), 1) - mark.begin())];
  std::vector<TileColumnPart> merged;
  auto merge_fresh = [&](const Impl::Part& p) {
    merged.push_back(TileColumnPart{fresh_index(p), p.first_site,
                                    p.num_sites});
  };
  std::size_t fi = 0;
  for (int t = 0; t < im.slack.num_tiles(); ++t) {
    std::size_t fj = fi;
    while (fj < fresh_parts.size() && fresh_parts[fj].tile_flat == t) ++fj;
    std::vector<TileColumnPart>& parts = im.slack.tile_parts_[t];
    if (fj == fi && (parts.empty() || parts.back().column < first_changed))
      continue;
    merged.clear();
    bool touched = fj > fi;
    bool changed = false;
    std::size_t k = fi;  // next fresh part of t
    std::size_t matched = fi;  // next fresh part to compare an old one with
    for (const TileColumnPart& p : parts) {
      const int to = res.column_remap[p.column];
      if (to < 0) {
        touched = true;
        if (matched >= fj || !same_sites(p, fresh_parts[matched]))
          changed = true;
        ++matched;
        continue;
      }
      for (; k < fj && fresh_index(fresh_parts[k]) < to; ++k)
        merge_fresh(fresh_parts[k]);
      merged.push_back(TileColumnPart{to, p.first_site, p.num_sites});
    }
    for (; k < fj; ++k) merge_fresh(fresh_parts[k]);
    if (matched != fj) changed = true;
    parts.assign(merged.begin(), merged.end());
    if (touched) res.touched_tiles.push_back(t);
    if (changed) res.sites_changed.push_back(t);
    fi = fj;
  }

  // Move every untouched x-column's columns to its new offset, once: left
  // shifts front to back, then right shifts back to front, so no move
  // overwrites a column that has yet to move. Then drop in the fresh ones.
  const int old_total = im.offsets[n];
  const int new_total = new_offsets[n];
  if (new_total > old_total) columns.resize(new_total);
  for (int g = 0; g < n; ++g)
    if (!mark[g] && new_offsets[g] < im.offsets[g])
      std::move(columns.begin() + im.offsets[g],
                columns.begin() + im.offsets[g + 1],
                columns.begin() + new_offsets[g]);
  for (int g = n - 1; g >= 0; --g)
    if (!mark[g] && new_offsets[g] > im.offsets[g])
      std::move_backward(columns.begin() + im.offsets[g],
                         columns.begin() + im.offsets[g + 1],
                         columns.begin() + new_offsets[g + 1]);
  columns.resize(new_total);
  for (int g = 0; g < n; ++g)
    if (mark[g])
      std::copy(fresh.begin() + fresh_begin[g],
                fresh.begin() + fresh_begin[g] +
                    (new_offsets[g + 1] - new_offsets[g]),
                columns.begin() + new_offsets[g]);
  im.offsets = std::move(new_offsets);
  im.slack.total_capacity_ += capacity_delta;
  return res;
}

void GlobalSlackScan::shift_piece_indices(int first_old_index, int delta) {
  if (delta == 0) return;
  for (SlackColumn& col : impl_->slack.columns_) {
    if (col.below_piece >= first_old_index) col.below_piece += delta;
    if (col.above_piece >= first_old_index) col.above_piece += delta;
  }
}

const SlackColumns& GlobalSlackScan::columns() const { return impl_->slack; }

SlackColumns GlobalSlackScan::take_columns() && {
  return std::move(impl_->slack);
}

SlackColumns extract_slack_columns(const layout::Layout& layout,
                                   const grid::Dissection& dissection,
                                   const std::vector<WirePiece>& pieces,
                                   layout::LayerId layer,
                                   const FillRules& rules, SlackMode mode) {
  rules.validate();
  if (mode == SlackMode::kIII) {
    // Mode III is the per-column scan; going through GlobalSlackScan keeps
    // full and incremental extraction on one code path (bit-identical).
    GlobalSlackScan scan(layout, dissection, layer, rules);
    scan.build(pieces);
    SlackColumns out = std::move(scan).take_columns();
    PIL_INFO(to_string(mode) << ": " << out.columns().size()
                             << " slack columns");
    return out;
  }
  // Vertical-preference layers are scanned in a transposed frame where the
  // routing direction is horizontal; only geometry is swapped -- tile part
  // indices are mapped back to the real dissection at the end.
  const bool transposed = layout.layer(layer).preferred_direction ==
                          layout::Orientation::kVertical;
  auto xf = [&](const Rect& r) {
    return transposed ? Rect{r.ylo, r.xlo, r.yhi, r.xhi} : r;
  };
  const Rect die = xf(layout.die());
  const grid::Dissection scan_dis =
      transposed ? grid::Dissection(die, dissection.window_um(),
                                    dissection.r())
                 : dissection;
  // Real flat tile index for a scan-frame flat index.
  auto real_flat = [&](int scan_flat) {
    if (!transposed) return scan_flat;
    const grid::TileIndex t = scan_dis.tile_unflat(scan_flat);
    return dissection.tile_flat(grid::TileIndex{t.iy, t.ix});
  };

  const ColumnGrid grid(die, rules);
  const double b = rules.buffer_um;

  // Partition pieces on the layer: routing-direction pieces are the active
  // lines; cross-direction pieces only block. Rects live in the scan frame.
  const Orientation routing_dir =
      transposed ? Orientation::kVertical : Orientation::kHorizontal;
  std::vector<std::pair<int, Rect>> hpieces;
  std::vector<Rect> vpieces;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (pieces[i].layer != layer) continue;
    if (pieces[i].orientation == routing_dir)
      hpieces.emplace_back(static_cast<int>(i), xf(pieces[i].rect()));
    else
      vpieces.push_back(xf(pieces[i].rect()));
  }
  // Tie-break equal scan positions by (net, index) so the processing order
  // is invariant under piece renumbering (see GlobalSlackScan::piece_before).
  std::sort(hpieces.begin(), hpieces.end(),
            [&](const auto& a, const auto& b2) {
              if (a.second.ylo != b2.second.ylo)
                return a.second.ylo < b2.second.ylo;
              if (pieces[a.first].net != pieces[b2.first].net)
                return pieces[a.first].net < pieces[b2.first].net;
              return a.first < b2.first;
            });

  // Per-column blockage intervals (buffer-inflated in both directions):
  // wrong-direction wires and explicit fill blockages both pierce gaps.
  std::vector<geom::IntervalSet> blocked(grid.count);
  auto block_rect = [&](const Rect& v) {
    int c0, c1;
    grid.overlapping(v.xlo - b, v.xhi + b, c0, c1);
    for (int c = c0; c <= c1; ++c) blocked[c].insert(v.ylo - b, v.yhi + b);
  };
  for (const Rect& v : vpieces) block_rect(v);
  for (const Rect& v : layout.blockages_on_layer(layer)) block_rect(xf(v));

  std::vector<SlackColumn> columns;
  std::vector<std::vector<TileColumnPart>> tile_parts(dissection.num_tiles());

  // Modes I/II: independent scan per tile; each column is one part.
  for (int scan_flat = 0; scan_flat < scan_dis.num_tiles(); ++scan_flat) {
    const Rect tile = scan_dis.tile_rect(scan_dis.tile_unflat(scan_flat));
    const std::size_t before = columns.size();
    // Clip the piece set to those overlapping the tile (x-inflated so a
    // line just outside the tile in x does not bound columns -- per the
    // paper, only lines *intersecting* the tile are scanned).
    std::vector<std::pair<int, Rect>> local;
    for (const auto& [idx, rect] : hpieces)
      if (geom::overlaps_strictly(rect, tile)) local.emplace_back(idx, rect);
    scan_region(tile, grid, local, blocked, rules, mode,
                BoundKind::kTileEdge, columns);
    for (std::size_t ci = before; ci < columns.size(); ++ci)
      tile_parts[real_flat(scan_flat)].push_back(TileColumnPart{
          static_cast<int>(ci), 0, columns[ci].capacity});
  }

  PIL_INFO(to_string(mode) << ": " << columns.size() << " slack columns");
  return SlackColumns(std::move(columns), std::move(tile_parts), transposed);
}

}  // namespace pil::fill

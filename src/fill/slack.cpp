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

/// `r` in the other frame: the x/y swap of a vertical-preference layer's
/// scan frame (its own inverse) when `transposed`.
Rect to_frame(bool transposed, const Rect& r) {
  return transposed ? Rect{r.ylo, r.xlo, r.yhi, r.xhi} : r;
}

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
  return to_frame(transposed_, Rect{col.x_lo, y, col.x_lo + rules.feature_um,
                                    y + rules.feature_um});
}

geom::Point SlackColumns::column_cross_point(
    const SlackColumn& col, const rctree::WirePiece& piece) const {
  // In the scan frame the column sits at cross coordinate x_center; project
  // it onto the line in real coordinates.
  return transposed_ ? geom::Point{piece.up.x, col.x_center}
                     : geom::Point{col.x_center, piece.up.y};
}

std::vector<int> SlackColumns::count_features(
    const std::vector<geom::Rect>& features, const FillRules& rules,
    long long& unmapped) const {
  const double pitch = rules.pitch();
  // col_index -> list of (span_lo, column id), sorted by span_lo.
  int max_colindex = -1;
  for (const auto& col : columns_)
    max_colindex = std::max(max_colindex, col.col_index);
  std::vector<std::vector<std::pair<double, int>>> spans_of(max_colindex + 1);
  for (std::size_t i = 0; i < columns_.size(); ++i)
    spans_of[columns_[i].col_index].emplace_back(columns_[i].span_lo,
                                                 static_cast<int>(i));
  for (auto& v : spans_of) std::sort(v.begin(), v.end());
  // Columns are at origin + c*pitch: the lowest one recovers the grid.
  const SlackColumn* c0 = nullptr;
  for (const auto& v : spans_of)
    if (!v.empty()) {
      c0 = &columns_[v.front().second];
      break;
    }

  auto find = [&](const geom::Rect& feature_real) {
    if (c0 == nullptr) return -1;
    const Rect feature = to_frame(transposed_, feature_real);
    // Recover the site-column index from the feature's x center. All
    // shipped placements use the shared global x grid, so the nearest
    // column is exact.
    const double cx = (feature.xlo + feature.xhi) / 2;
    const int guess =
        c0->col_index + static_cast<int>(std::lround((cx - c0->x_center) /
                                                     pitch));
    if (guess < 0 || guess >= static_cast<int>(spans_of.size())) return -1;
    const auto& spans = spans_of[guess];
    const double cy = (feature.ylo + feature.yhi) / 2;
    // Last span starting at or below cy.
    auto it = std::upper_bound(
        spans.begin(), spans.end(), std::make_pair(cy + geom::kEps, 1 << 30));
    if (it == spans.begin()) return -1;
    --it;
    const auto& col = columns_[it->second];
    if (cy > col.span_hi + geom::kEps) return -1;
    if (std::fabs(col.x_center - cx) > pitch / 2) return -1;
    return it->second;
  };

  std::vector<int> counts(columns_.size(), 0);
  for (const auto& f : features) {
    const int c = find(f);
    if (c < 0)
      ++unmapped;
    else
      counts[c] += 1;
  }
  return counts;
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

namespace {

/// One layer's scan frame, shared by the per-tile scan of modes I/II and
/// GlobalSlackScan (mode III): a vertical-preference layer is scanned
/// transposed, so its routing direction is horizontal, and scan-frame tile
/// ids map back to the real dissection.
struct ScanFrame {
  using Line = std::pair<int, Rect>;  ///< piece index, scan-frame rect

  const grid::Dissection* dissection;  // real frame
  layout::LayerId layer;
  FillRules rules;
  bool transposed = false;
  Rect die;                  // scan frame
  grid::Dissection scan_dis; // scan frame
  ColumnGrid grid;
  int c_begin = 0, c_end = -1;  // site columns fully inside the die
  Orientation routing_dir = Orientation::kHorizontal;
  /// Blockage-only intervals per site column group g (site column
  /// c_begin + g); blockages are not part of the edit model, so these
  /// never change after construction.
  std::vector<geom::IntervalSet> blocked_static;

  ScanFrame(const layout::Layout& layout, const grid::Dissection& dis,
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
        grid(die, rules_in) {
    rules.validate();
    routing_dir = transposed ? Orientation::kVertical
                             : Orientation::kHorizontal;
    grid.inside(die.xlo, die.xhi, c_begin, c_end);
    blocked_static.assign(num_xcols(), {});
    for (const Rect& v : layout.blockages_on_layer(layer))
      block(xf(v), nullptr, blocked_static);
  }

  Rect xf(const Rect& r) const { return to_frame(transposed, r); }
  int num_xcols() const { return c_begin > c_end ? 0 : c_end - c_begin + 1; }

  int real_flat(int scan_flat) const {
    if (!transposed) return scan_flat;
    const grid::TileIndex t = scan_dis.tile_unflat(scan_flat);
    return dissection->tile_flat(grid::TileIndex{t.iy, t.ix});
  }

  /// Site column groups [g0, g1] whose footprint a scan-frame x-extent
  /// reaches once inflated by the buffer (empty when g0 > g1).
  void reach(double xlo, double xhi, int& g0, int& g1) const {
    const double b = rules.buffer_um;
    grid.overlapping(xlo - b, xhi + b, g0, g1);
    g0 = std::max(g0, c_begin) - c_begin;
    g1 = std::min(g1, c_end) - c_begin;
  }

  /// Block the buffer-inflated y-extent of `v` (a cross-direction piece or
  /// a blockage) in the marked groups it reaches (all when `mark` is null).
  void block(const Rect& v, const std::vector<char>* mark,
             std::vector<geom::IntervalSet>& blocked) const {
    const double b = rules.buffer_um;
    int g0, g1;
    reach(v.xlo, v.xhi, g0, g1);
    for (int g = g0; g <= g1; ++g)
      if (!mark || (*mark)[g]) blocked[g].insert(v.ylo - b, v.yhi + b);
  }

  /// The layer's routing-direction pieces (active lines) that reach a
  /// marked group (any group when `mark` is null), sorted by scan-frame
  /// ylo, then net, then index. The net/index tie-break keeps the order --
  /// and so which of two co-track pieces bounds a gap -- stable when edits
  /// to one net renumber the flattened piece array of the others.
  /// Cross-direction pieces go into `blocked` instead.
  std::vector<Line> lines(const std::vector<WirePiece>& pieces,
                          const std::vector<char>* mark,
                          std::vector<geom::IntervalSet>& blocked) const {
    std::vector<Line> out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (pieces[i].layer != layer) continue;
      const Rect r = xf(pieces[i].rect());
      if (pieces[i].orientation != routing_dir) {
        block(r, mark, blocked);
        continue;
      }
      const Rect clipped = geom::intersect(r, die);
      if (clipped.empty() || clipped.width() <= 0) continue;
      int g0, g1;
      reach(clipped.xlo, clipped.xhi, g0, g1);
      for (int g = g0; g <= g1; ++g)
        if (!mark || (*mark)[g]) {
          out.emplace_back(static_cast<int>(i), r);
          break;
        }
    }
    std::sort(out.begin(), out.end(), [&](const Line& a, const Line& c) {
      if (a.second.ylo != c.second.ylo) return a.second.ylo < c.second.ylo;
      if (pieces[a.first].net != pieces[c.first].net)
        return pieces[a.first].net < pieces[c.first].net;
      return a.first < c.first;
    });
    return out;
  }

  /// Modes I/II (Fig. 7 per tile): scan one tile region bottom-up over the
  /// lines intersecting it, clipped to it, and append the slack columns
  /// found. The region's own y-boundaries bound as kTileEdge.
  void scan_region(const Rect& region, const std::vector<Line>& lines_sorted,
                   const std::vector<geom::IntervalSet>& blocked,
                   SlackMode mode, std::vector<SlackColumn>& out) const {
    int c_lo, c_hi;
    grid.inside(region.xlo, region.xhi, c_lo, c_hi);
    if (c_lo > c_hi) return;

    std::vector<ColumnState> state(c_hi - c_lo + 1);
    for (auto& s : state) {
      s.start = region.ylo;
      s.kind = BoundKind::kTileEdge;
      s.piece = -1;
    }

    const double b = rules.buffer_um;
    for (const auto& [piece_idx, rect] : lines_sorted) {
      // Only lines intersecting the tile are scanned (per the paper), so a
      // line just outside it in x does not bound its columns.
      const Rect clipped = geom::intersect(rect, region);
      if (clipped.width() <= 0 || clipped.height() <= 0) continue;
      int c0, c1;
      grid.overlapping(clipped.xlo - b, clipped.xhi + b, c0, c1);
      c0 = std::max(c0, c_lo);
      c1 = std::min(c1, c_hi);
      for (int c = c0; c <= c1; ++c) {
        ColumnState& s = state[c - c_lo];
        if (clipped.ylo > s.start + geom::kEps)
          emit_gap(grid, c, s, BoundKind::kLine, piece_idx, clipped.ylo,
                   blocked[c - c_begin], rules, mode, out);
        if (clipped.yhi > s.start) {
          s.start = clipped.yhi;
          s.kind = BoundKind::kLine;
          s.piece = piece_idx;
        }
      }
    }
    for (int c = c_lo; c <= c_hi; ++c) {
      const ColumnState& s = state[c - c_lo];
      if (region.yhi > s.start + geom::kEps)
        emit_gap(grid, c, s, BoundKind::kTileEdge, -1, region.yhi,
                 blocked[c - c_begin], rules, mode, out);
    }
  }
};

}  // namespace

/// The scanner's state: its frame, one SlackColumns in canonical order
/// and, per site column group g, the flat index of its first column.
struct GlobalSlackScan::Impl : ScanFrame {
  /// One tile's share of a column, as a fresh scan emits it; `column`
  /// indexes the vector the scan appended its columns to.
  struct Part {
    int tile_flat;  ///< real (dissection-frame) flat tile id
    int column;
    int first_site;
    int num_sites;
  };

  SlackColumns slack;        // the one copy, canonical order
  std::vector<int> offsets;  // flat column offset per group (+1 total)

  Impl(const layout::Layout& layout, const grid::Dissection& dis,
       layout::LayerId layer_in, const FillRules& rules_in)
      : ScanFrame(layout, dis, layer_in, rules_in),
        slack({}, std::vector<std::vector<TileColumnPart>>(dis.num_tiles()),
              transposed) {
    offsets.assign(num_xcols() + 1, 0);
  }

  /// Run the column state machine for site column `c` over `pidx` (piece
  /// indices in lines() order), appending its columns in ascending-y
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

  /// Bucket the lines into the marked groups they reach (all when `mark`
  /// is null), in lines() order, and block the cross-direction pieces.
  void bucket_pieces(const std::vector<WirePiece>& pieces,
                     const std::vector<char>* mark,
                     std::vector<std::vector<int>>& hbucket,
                     std::vector<geom::IntervalSet>& blocked) const {
    for (const auto& [idx, r] : lines(pieces, mark, blocked)) {
      const Rect clipped = geom::intersect(r, die);
      int g0, g1;
      reach(clipped.xlo, clipped.xhi, g0, g1);
      for (int g = g0; g <= g1; ++g)
        if (!mark || (*mark)[g]) hbucket[g].push_back(idx);
    }
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
  std::vector<geom::IntervalSet> blocked = im.blocked_static;
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
  RescanResult res;

  std::vector<char> mark(n, 0);
  for (const Rect& r0 : changed_real) {
    const Rect r = im.xf(r0);
    int g0, g1;
    im.reach(r.xlo, r.xhi, g0, g1);
    for (int g = g0; g <= g1; ++g) mark[g] = 1;
  }

  std::vector<std::vector<int>> hbucket(n);
  std::vector<geom::IntervalSet> blocked(n);
  for (int g = 0; g < n; ++g)
    if (mark[g]) blocked[g] = im.blocked_static[g];
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
  // Modes I/II scan each tile on its own, bounded by its edges, in the
  // frame the mode-III scanner uses; each column is one part of its tile.
  const ScanFrame f(layout, dissection, layer, rules);
  std::vector<geom::IntervalSet> blocked = f.blocked_static;
  const std::vector<ScanFrame::Line> lines = f.lines(pieces, nullptr, blocked);
  std::vector<SlackColumn> columns;
  std::vector<std::vector<TileColumnPart>> tile_parts(dissection.num_tiles());
  for (int scan_flat = 0; scan_flat < f.scan_dis.num_tiles(); ++scan_flat) {
    const std::size_t before = columns.size();
    f.scan_region(f.scan_dis.tile_rect(f.scan_dis.tile_unflat(scan_flat)),
                  lines, blocked, mode, columns);
    for (std::size_t ci = before; ci < columns.size(); ++ci)
      tile_parts[f.real_flat(scan_flat)].push_back(TileColumnPart{
          static_cast<int>(ci), 0, columns[ci].capacity});
  }

  PIL_INFO(to_string(mode) << ": " << columns.size() << " slack columns");
  return SlackColumns(std::move(columns), std::move(tile_parts), f.transposed);
}

}  // namespace pil::fill

#pragma once
/// \file slack.hpp
/// Slack site columns and the scan-line extraction algorithm (Section 5.1 /
/// Figure 7 of the paper), with the three column definitions:
///
///   * SlackColumn-I   : per tile, gaps between active lines inside the tile
///                       only (misses capacity; can be infeasible).
///   * SlackColumn-II  : per tile, also gaps bounded by tile edges (full
///                       capacity, but edge-bounded gaps have no associated
///                       line, so their true delay cost is invisible).
///   * SlackColumn-III : one global scan; gaps are bounded by the *actual*
///                       neighboring lines regardless of tile boundaries --
///                       the most accurate definition.
///
/// Fill sites live on a global x-grid of columns (pitch = feature + gap);
/// within a gap, sites stack bottom-up with the same pitch. Vertical
/// (wrong-direction) wires do not bound gaps electrically but do block them:
/// a gap pierced by a vertical wire over a column's footprint is discarded
/// (conservative -- the parallel-plate model cannot price a conductor inside
/// the gap).

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "pil/fill/rules.hpp"
#include "pil/grid/dissection.hpp"
#include "pil/layout/layout.hpp"
#include "pil/rctree/rctree.hpp"

namespace pil::fill {

enum class SlackMode { kI, kII, kIII };

const char* to_string(SlackMode m);

/// What bounds a slack column from below/above.
enum class BoundKind : unsigned char { kLine, kDieEdge, kTileEdge };

/// One maximal column of stackable fill sites between two y-boundaries at a
/// fixed x site-column.
struct SlackColumn {
  int col_index = -1;    ///< global site-column index (x grid)
  double x_lo = 0.0;     ///< feature footprint in x: [x_lo, x_lo + feature]
  double x_center = 0.0;
  BoundKind below = BoundKind::kDieEdge;
  BoundKind above = BoundKind::kDieEdge;
  int below_piece = -1;  ///< index into the global piece array when kLine
  int above_piece = -1;
  double gap_um = 0.0;   ///< edge-to-edge distance between the two bounds
  double span_lo = 0.0;  ///< usable span (buffers already applied)
  double span_hi = 0.0;
  int capacity = 0;      ///< max stackable features

  bool two_sided() const {
    return below == BoundKind::kLine && above == BoundKind::kLine;
  }
  /// y of the bottom edge of site `i` (0-based, stacked bottom-up).
  double site_y(int i, const FillRules& rules) const {
    PIL_REQUIRE(i >= 0 && i < capacity, "site index out of range");
    return span_lo + i * rules.pitch();
  }
};

/// The portion of a column that lies in one tile: sites [first_site,
/// first_site + num_sites). In modes I/II a column belongs to exactly one
/// tile; in mode III a long gap is split across the tile rows it crosses.
struct TileColumnPart {
  int column = -1;      ///< index into SlackColumns::columns()
  int first_site = 0;
  int num_sites = 0;
};

/// Result of slack extraction: the columns plus the per-tile site inventory.
///
/// Vertical-preference layers are handled by transposition: the scan runs
/// in a coordinate frame where the routing direction is horizontal, and
/// `transposed()` reports whether column coordinates live in that swapped
/// frame. Use site_rect() / column_cross_point() / line_res_at() /
/// count_features() to stay in real layout coordinates; tile part indices
/// always refer to the real dissection.
class SlackColumns {
 public:
  const std::vector<SlackColumn>& columns() const { return columns_; }
  /// One tile's parts, in ascending column index.
  const std::vector<TileColumnPart>& tile_parts(int tile_flat) const;
  int num_tiles() const { return static_cast<int>(tile_parts_.size()); }

  /// True when column coordinates are in the transposed (x/y-swapped) frame
  /// because the layer routes vertically.
  bool transposed() const { return transposed_; }
  /// The column definition the columns were extracted under.
  SlackMode mode() const { return mode_; }

  /// A column's place in the order Fig. 7's per-tile sweep (modes I/II)
  /// closes the columns of its tile: the line that closes it from above
  /// (scan-frame ylo, net, piece index; a tile-edge top closes last), then
  /// its site column, then its span_lo. Unique within a tile. `pieces` is
  /// the array the columns' piece indices refer into.
  using SweepKey = std::tuple<double, int, int, int, double>;
  SweepKey sweep_key(const SlackColumn& col,
                     const std::vector<rctree::WirePiece>& pieces) const;

  /// Real-space footprint of site `i` of a column.
  geom::Rect site_rect(const SlackColumn& col, int site,
                       const FillRules& rules) const;

  /// Real-space point where the column crosses active line `piece` (for
  /// entry-resistance evaluation): the column's cross coordinate projected
  /// onto the line.
  geom::Point column_cross_point(const SlackColumn& col,
                                 const rctree::WirePiece& piece) const;

  /// Resistance factor of active line `piece` where the column crosses it,
  /// R_l + r_l * (distance along the line from its upstream end): bit for
  /// bit piece.res_at(column_cross_point(col, piece)), whose Manhattan
  /// distance is this one difference plus an exact 0. Inline, because the
  /// evaluator calls it twice per filled column.
  double line_res_at(const SlackColumn& col,
                     const rctree::WirePiece& piece) const {
    const double along = transposed_ ? piece.up.y : piece.up.x;
    return piece.upstream_res +
           piece.res_per_um * std::fabs(along - col.x_center);
  }

  /// Per-column feature counts of a placement given as real-space
  /// rectangles (the inverse of site_rect): a feature belongs to the column
  /// of its site column (recovered from its center) whose span holds its
  /// center. Features in no column are counted in `unmapped`.
  std::vector<int> count_features(const std::vector<geom::Rect>& features,
                                  const FillRules& rules,
                                  long long& unmapped) const;

  /// Total fill capacity of one tile (sites over all parts).
  int tile_capacity(int tile_flat) const;
  /// Total capacity over the layout (summed once, at construction).
  long long total_capacity() const { return total_capacity_; }

 private:
  friend class GlobalSlackScan;  // builds and updates its columns in place

  SlackColumns(int num_tiles, bool transposed, SlackMode mode);

  std::vector<SlackColumn> columns_;
  std::vector<std::vector<TileColumnPart>> tile_parts_;
  bool transposed_ = false;
  SlackMode mode_ = SlackMode::kIII;
  long long total_capacity_ = 0;
};

/// Extract slack columns for `layer` of the layout under the given mode.
/// `pieces` is the flattened WirePiece array over all nets (see
/// flatten_pieces); piece indices in the result refer into it.
SlackColumns extract_slack_columns(const layout::Layout& layout,
                                   const grid::Dissection& dissection,
                                   const std::vector<rctree::WirePiece>& pieces,
                                   layout::LayerId layer,
                                   const FillRules& rules, SlackMode mode);

/// The incremental slack-column scanner (Fig. 7), for all three
/// definitions. The scan decomposes exactly per x-site-column: one state
/// machine walks up each site column, seeing only the pieces whose
/// (buffer-inflated) footprint overlaps it -- across the die in mode III,
/// whose columns split across the tile rows they cross, and once per tile
/// in modes I/II, over the lines crossing the tile (a site column that
/// straddles a tile edge has none). The scanner owns one SlackColumns,
/// which build() fills and rescan() updates in place: it re-scans just the
/// x-columns overlapping a set of changed rectangles, rewrites their
/// columns and the part lists of the tiles they touch, and leaves the
/// result value-identical to a from-scratch extraction of the same layout
/// (extract_slack_columns builds a scanner and takes its columns).
///
/// Column order is canonical: ascending x column, then ascending span
/// within the column -- independent of piece insertion order, which is what
/// makes incremental and full extraction comparable bit-for-bit.
///
/// Blockages are cached at construction (the incremental edit model covers
/// wires only); the layout and dissection must outlive the scanner.
class GlobalSlackScan {
 public:
  GlobalSlackScan(const layout::Layout& layout,
                  const grid::Dissection& dissection, layout::LayerId layer,
                  const FillRules& rules, SlackMode mode);
  ~GlobalSlackScan();
  GlobalSlackScan(GlobalSlackScan&&) noexcept;
  GlobalSlackScan& operator=(GlobalSlackScan&&) noexcept;

  /// Scan every column from scratch.
  void build(const std::vector<rctree::WirePiece>& pieces);

  struct RescanResult {
    int xcols_rescanned = 0;
    /// Real (dissection-frame) flat tile ids whose column parts existed in
    /// a rescanned column before or after the rescan; sorted, unique.
    std::vector<int> touched_tiles;
    /// The touched tiles whose sites in the rescanned x-columns moved or
    /// split differently: every other tile's k-th part covers the same site
    /// rectangles (same x column, span_lo, first_site and num_sites) as
    /// before, so equal counts place equal rectangles. Sorted, unique.
    std::vector<int> sites_changed;
    /// Maps flat column indices before the rescan to the current ones; -1
    /// for columns that belonged to a rescanned x-column (their
    /// replacements are new entries). Indices of untouched columns only
    /// shift by their x-column group offset, so remapped columns are
    /// value-identical to their old selves apart from piece-index shifts
    /// applied via shift_piece_indices().
    std::vector<int> column_remap;
  };

  /// Re-scan only the x-columns whose footprint (buffer-inflated, same
  /// criterion the scan itself uses) overlaps one of `changed_real`
  /// (given in real layout coordinates). `pieces` is the post-edit piece
  /// array; callers must pass the union of pre- and post-edit footprints
  /// of every piece whose geometry or electrical values changed. Columns
  /// of later x-columns move once, in place, and part lists are renumbered
  /// to match.
  RescanResult rescan(const std::vector<rctree::WirePiece>& pieces,
                      const std::vector<geom::Rect>& changed_real);

  /// Shift stored below/above piece indices >= `first_old_index` by
  /// `delta`: call before rescan() when an edit renumbered the flattened
  /// piece array (pieces of nets after the edited one move by a constant).
  void shift_piece_indices(int first_old_index, int delta);

  /// The current columns: the scanner's own storage, so the reference stays
  /// valid -- and current across rescans -- for the scanner's life.
  const SlackColumns& columns() const;

  /// Move the columns out, leaving the scanner empty.
  SlackColumns take_columns() &&;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Flatten per-net RC trees into one global piece array (the index space
/// used by SlackColumn::below_piece/above_piece).
std::vector<rctree::WirePiece> flatten_pieces(
    const std::vector<rctree::RcTree>& trees);

}  // namespace pil::fill

#pragma once
/// \file session.hpp
/// Incremental fill engine: a FillSession owns every prep artifact of the
/// PIL-Fill flow (dissection, density map, RC trees/pieces, slack columns,
/// per-tile instances, evaluator) for one (layout, layer, config) and keeps
/// them alive across calls, so that
///
///   * repeated method/objective sweeps (`solve`) reuse the prep and every
///     per-tile solve already cached, and
///   * small wire edits (`apply_edit`) invalidate -- and re-solve -- only
///     the tiles whose geometry, density window, or slack columns the edit
///     actually touches.
///
/// Results are bit-identical to a from-scratch run_pil_fill_flow on the
/// edited layout. Five properties of the flow make that feasible:
///
///   1. per-tile RNG streams: a tile's solve depends only on its instance
///      and (config.seed, method, tile id) -- never on which other tiles
///      are solved, or on threads;
///   2. the slack scan decomposes exactly per x-site-column with a
///      canonical output order (fill::GlobalSlackScan, in every mode), so
///      re-scanning the columns an edit overlaps and rewriting them in
///      place leaves the columns value-identical to full extraction;
///   3. density accumulation is re-run per affected tile in original
///      layout order (grid::DensityMap::recompute_tiles), sidestepping
///      floating-point non-associativity;
///   4. under SlackColumn-III a tile instance's columns are the global
///      columns, so a method's cached per-tile counts, summed per column,
///      are the global-column counts the evaluator scores
///      (DelayImpactEvaluator::evaluate_counts) -- the same counts that
///      binning the assembled placement's rectangles would produce;
///   5. a tile's area after fill is its wire area plus the overlaps of the
///      features that reach it, added in placement order, so recomputing
///      only the tiles whose area can have changed gives the bits
///      density_with(placement) gives.
///
/// Dirty propagation (what one edit invalidates):
///
///   * density: tiles overlapping the old/new drawn rect of the edited
///     segment are re-accumulated; if the session computes its own targets
///     (required_per_tile empty), the global targeter re-runs -- tiles whose
///     requirement changes are re-solved even when their geometry did not
///     change (window-overlap propagation, including re-targeting).
///   * slack: every x-column overlapping (buffer-inflated) any pre- or
///     post-edit piece of the edited net is re-scanned. This includes
///     pieces far from the edit: an edit changes upstream resistance /
///     sink weights of the whole net, so every column the net bounds gets
///     fresh resistance factors. Each scanner (the mode-III one behind
///     global_slack(), and under solver_mode I or II a second one behind
///     solver_slack()) rewrites those columns and the part lists of the
///     tiles they touch in its one copy; later columns move once, in place.
///   * instances: rebuilt, in every mode, for tiles touched by the solver
///     columns' re-scanned x-columns or by requirement changes; a rebuilt
///     instance that is solver-equivalent to its predecessor keeps its
///     cached per-method solve results.
///   * density_after: each method keeps the tile areas of its last
///     placement and a mask of stale tiles. The edit marks the tiles whose
///     wire area it recomputed, and the reach of every removed instance
///     and of every kept instance whose sites moved; solve() marks the
///     reach of every tile it re-solves, then recomputes only the stale
///     tiles. A feature is centred in its tile, so its reach is
///     ceil(feature_um / (2 * tile side)) tiles past it (one more when
///     that ratio is whole): 1 at every shipped window, 2 on a 0.2 um
///     tile. A method's first solve has every tile stale.
///   * RC trees and pieces: the edited net's tree is rebuilt and its range
///     of the flattened piece array is replaced in place; later nets'
///     piece indices shift by the size change.
///   * evaluator: built once at prep over global_slack() and the piece
///     array, both of which edits update in place; never rebuilt.
///
/// The one-shot flows (run_pil_fill_flow & friends) are thin wrappers over
/// a FillSession: construct, solve, discard. The extension flows (budgeted,
/// MVDC, anneal) take a caller's session, so one prep and one evaluator
/// serve every flow a caller compares.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pil/pilfill/driver.hpp"

namespace pil::util {
class Deadline;  // pil/util/deadline.hpp
}

namespace pil::pilfill {

/// One incremental wire edit on the session's fill layer.
struct WireEdit {
  enum class Kind { kAddSegment, kRemoveSegment, kMoveSegment };

  Kind kind = Kind::kAddSegment;
  layout::NetId net = layout::kInvalidNet;  ///< kAddSegment: owning net
  geom::Point a, b;       ///< kAddSegment: centerline endpoints
  double width_um = 0.0;  ///< kAddSegment: drawn width
  layout::SegmentId segment = layout::kInvalidSegment;  ///< kRemove/kMove
  double dx = 0.0, dy = 0.0;  ///< kMoveSegment: translation

  static WireEdit add_segment(layout::NetId net, geom::Point a, geom::Point b,
                              double width_um) {
    WireEdit e;
    e.kind = Kind::kAddSegment;
    e.net = net;
    e.a = a;
    e.b = b;
    e.width_um = width_um;
    return e;
  }
  static WireEdit remove_segment(layout::SegmentId segment) {
    WireEdit e;
    e.kind = Kind::kRemoveSegment;
    e.segment = segment;
    return e;
  }
  static WireEdit move_segment(layout::SegmentId segment, double dx,
                               double dy) {
    WireEdit e;
    e.kind = Kind::kMoveSegment;
    e.segment = segment;
    e.dx = dx;
    e.dy = dy;
    return e;
  }
};

/// What one apply_edit invalidated, and what it cost.
struct EditStats {
  layout::SegmentId segment = layout::kInvalidSegment;  ///< edited segment id
  int columns_rescanned = 0;  ///< x-site-columns re-scanned
  int tiles_retargeted = 0;   ///< tiles whose fill requirement changed
  int tiles_dirty = 0;        ///< tiles whose cached solves were invalidated
  double seconds = 0.0;       ///< stage pilfill.session.apply_edit
};

/// Session lifetime counters (also published as pilfill.session.* metrics).
struct SessionStats {
  long long edits = 0;
  long long columns_rescanned = 0;
  long long tiles_dirty = 0;
  /// Per-tile solves actually executed / served from cache, summed over
  /// all solve() calls and methods.
  long long tiles_resolved = 0;
  long long tiles_reused = 0;
  /// Always 0; dropped with pilperf's next change (ROADMAP item 6).
  long long basis_hits = 0;
  /// Always 0; dropped with pilperf's next change (ROADMAP item 6).
  long long basis_misses = 0;
};

/// Stateful incremental fill engine. Construction runs the full prep once
/// (same stages, spans, and metrics as the one-shot flow); solve() and
/// apply_edit() then work against the cached state. The session owns a
/// copy of the layout; apply_edit mutates that copy, and layout() exposes
/// it (e.g. to compare against a fresh run on the same geometry).
class FillSession {
 public:
  /// Validates `config` against `layout` (FlowConfig::validate) and runs
  /// the shared prep. Throws pil::Error on invalid input.
  FillSession(const layout::Layout& layout, const FlowConfig& config);
  ~FillSession();
  FillSession(FillSession&&) noexcept;
  FillSession& operator=(FillSession&&) noexcept;

  /// Solve every required tile with each method, reusing cached per-tile
  /// results where the instance is unchanged since the last solve of that
  /// method. The returned FlowResult is bit-identical (timings aside) to
  /// run_pil_fill_flow on the session's current layout.
  FlowResult solve(const std::vector<Method>& methods);

  /// Solve under a per-call execution policy (deadlines, ladder, threads,
  /// fault spec) without mutating the session's config -- the hook
  /// pil::service uses to ride per-request deadlines on a shared session.
  /// The model half is untouched, so clean cached tile results stay
  /// reusable; cached results that were served by the degradation ladder
  /// (they carry a failure record and depend on the policy that produced
  /// them) are dropped and re-attempted under the new policy. Throws
  /// pil::Error when `policy` fails SolvePolicy::validate().
  ///
  /// `journal_flow_id` sets the flow correlation id stamped on every
  /// journal event this solve records (0 = allocate a fresh one). The
  /// service passes its per-request id here so a request's solver events
  /// -- down to the tile cause chains in a flight dump -- share one flow
  /// with the request's service_request/service_response events.
  ///
  /// `cancel`, when non-null, is an external cancellation token: the call
  /// combines it (util::Deadline::sooner) with the policy's flow deadline,
  /// so cancel->cancel() from another thread -- e.g. the service watchdog
  /// -- makes the solve degrade to the ladder's cheap end exactly as an
  /// expired flow deadline would. The token must outlive the call.
  FlowResult solve(const std::vector<Method>& methods,
                   const SolvePolicy& policy,
                   std::uint32_t journal_flow_id = 0,
                   const util::Deadline* cancel = nullptr);

  /// Apply one wire edit to the owned layout and incrementally refresh the
  /// prep state. Throws pil::Error (leaving the session on its pre-edit
  /// state) when the edit is invalid -- e.g. it disconnects the net's
  /// routing tree. A failed kAddSegment leaves an inert tombstone segment.
  EditStats apply_edit(const WireEdit& edit);

  const layout::Layout& layout() const;
  const FlowConfig& config() const;
  const grid::Dissection& dissection() const;
  int tiles_total() const;
  const SessionStats& stats() const;

  // Prep-state accessors: read-only views of the cached artifacts, which
  // the extension flows (budgeted, MVDC, anneal) and pilfill read instead
  // of prepping again.
  const grid::DensityMap& wires() const;
  const density::FillTargetResult& target() const;
  /// The mode-III columns: the slack scanner's own storage, which each
  /// edit updates in place, so the reference is valid -- and current --
  /// for the session's life.
  const fill::SlackColumns& global_slack() const;
  /// The columns the tile instances index: global_slack() under
  /// SlackColumn-III, else a second scanner's, likewise kept current.
  const fill::SlackColumns& solver_slack() const;
  const std::vector<rctree::RcTree>& trees() const;  ///< one per net
  const std::vector<rctree::WirePiece>& pieces() const;
  /// The session's one scorer, over global_slack() and pieces(). It is
  /// built once at prep and apply_edit updates what it reads in place, so
  /// the reference is valid for the session's life and always scores
  /// against the current layout.
  const DelayImpactEvaluator& evaluator() const;
  /// Window densities of wires() (drawn wires and metal) plus `features`,
  /// built from scratch. A method's density_after is
  /// density_with(placement).stats() bit for bit, though solve() keeps it
  /// per tile and recomputes only the tiles whose area can have changed.
  grid::DensityMap density_with(const std::vector<geom::Rect>& features) const;
  /// Instances of all tiles with a non-zero requirement, in tile order.
  std::vector<TileInstance> instances_snapshot() const;
  double prep_seconds() const;  ///< prep_stages().total()
  const StageSeconds& prep_stages() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when two flow results agree on everything except timing fields
/// (prep/solve/eval seconds and stage breakdowns): densities, targets,
/// capacities, per-method impacts, placements, failure records, and the
/// search-effort counters (bb_nodes, lp_solves, simplex_iterations) all
/// compare bitwise-equal. Every LP relaxation is solved from the same
/// starting basis, so a search that runs to completion walks the same tree
/// every time: like the placements, the counters follow from the instances.
bool flow_results_equivalent(const FlowResult& a, const FlowResult& b);

}  // namespace pil::pilfill

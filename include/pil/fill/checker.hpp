#pragma once
/// \file checker.hpp
/// Independent legality/consistency checker for fill placements. The
/// algorithms *should* produce clean fill by construction; a production
/// flow still verifies before tape-out, with code that shares as little as
/// possible with the generator. This checker works directly on rectangles
/// (no slack-column machinery): geometry against the drawn layout, found
/// through a uniform grid of square cells (side max(4 x pitch, 2 um),
/// anchored at the die's lower-left corner), plus density accounting
/// against the dissection.
///
/// The report's order is part of its contract. Features come in input
/// order; for each feature, in this order: outside-die, not-square,
/// blockages in list order, then wires, then later features, each of the
/// last two in row-major cell order (cells row by row, left to right) and
/// ascending id within a cell, a rectangle at its first cell. Density
/// windows come last, row by row.

#include <string>
#include <vector>

#include "pil/fill/rules.hpp"
#include "pil/grid/dissection.hpp"
#include "pil/layout/layout.hpp"

namespace pil::fill {

enum class ViolationKind {
  kOutsideDie,
  kBufferToWire,     ///< closer than buffer_um to drawn metal on the layer
  kFillSpacing,      ///< two features closer than gap_um
  kNotSquare,        ///< feature is not a feature_um x feature_um square
  kDensityOverCap,   ///< a window exceeds the given density cap
  kInsideBlockage,   ///< closer than buffer_um to a fill keep-out
};

const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kOutsideDie;
  geom::Rect a;       ///< offending feature (or window rect for density)
  geom::Rect b;       ///< other party (wire/feature), empty when n/a
  double measure = 0; ///< observed distance / density
  std::string describe() const;
};

struct CheckOptions {
  FillRules rules;
  layout::LayerId layer = 0;
  /// When >= 0, also check every window's density against this cap.
  double max_window_density = -1.0;
  /// Keep at most this many violations in the report (keeps pathological
  /// runs bounded); every violation is still counted.
  std::size_t max_violations = 100;
};

struct CheckReport {
  std::vector<Violation> violations;  ///< the first max_violations found
  long long violations_found = 0;     ///< all of them, past the cap too
  long long features_checked = 0;
  bool clean() const { return violations_found == 0; }
};

/// Check `features` against the layout. `dissection` may be null when no
/// density cap is requested.
CheckReport check_fill(const layout::Layout& layout,
                       const std::vector<geom::Rect>& features,
                       const CheckOptions& options,
                       const grid::Dissection* dissection = nullptr);

}  // namespace pil::fill

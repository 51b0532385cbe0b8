#pragma once
/// \file workloads.hpp
/// The stub edit the pilperf edit workloads apply to a design.

#include "pil/pil.hpp"

namespace pil::bench {

/// A vertical stub edit tapping `parent` at fraction `frac` of its length,
/// reaching 2.5 um up (or down when the die boundary is close).
inline pilfill::WireEdit make_stub_edit(const layout::Layout& l,
                                        layout::NetId net,
                                        const layout::WireSegment& parent,
                                        double frac) {
  const double tap = parent.a.x + frac * (parent.b.x - parent.a.x);
  const double up =
      l.die().yhi - parent.a.y > 4.0 ? parent.a.y + 2.5 : parent.a.y - 2.5;
  return pilfill::WireEdit::add_segment(net, {tap, parent.a.y}, {tap, up},
                                        0.4);
}

}  // namespace pil::bench

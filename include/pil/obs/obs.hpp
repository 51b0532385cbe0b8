#pragma once
/// \file obs.hpp
/// Umbrella header for the pil::obs observability subsystem: metrics
/// registry, trace spans, the always-on event journal and its
/// pil.flight.v1 postmortem dumps, the build/host environment capture, and
/// the minimal JSON layer they emit through. See docs/OBSERVABILITY.md for
/// metric names and schemas.

#include "pil/obs/flight.hpp"
#include "pil/obs/journal.hpp"
#include "pil/obs/json.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/obs/prof.hpp"
#include "pil/obs/slo.hpp"
#include "pil/obs/trace.hpp"

#pragma once
/// \file stage.hpp
/// obs::Stage times one stage of the fill pipeline from one declaration: it
/// opens a trace span named after the stage, adds the stage's seconds into
/// the caller's accumulator, and, while metrics are on, observes them in
/// pil.stage_seconds{stage=<name>[,method=<m>]}. Stage names are the
/// per-layer names pilperf publishes (docs/OBSERVABILITY.md lists them), so
/// a bench number, a span, a /metrics series and a run-report key agree.

#include <string>

#include "pil/obs/metrics.hpp"
#include "pil/obs/trace.hpp"
#include "pil/util/stopwatch.hpp"

namespace pil::obs {

/// The pil.stage_seconds histogram of `stage`, labeled with `method` when
/// non-null and the worker `thread` when >= 0; null while metrics are off.
/// Takes the registry mutex, so a hot loop resolves its handle once.
inline Histogram* stage_histogram(const char* stage,
                                  const char* method = nullptr,
                                  int thread = -1) {
  if (!metrics_enabled()) return nullptr;
  const char* base = "pil.stage_seconds";
  const std::string t = std::to_string(thread);
  return &metrics().histogram(
      method == nullptr ? labeled(base, {{"stage", stage}})
      : thread < 0      ? labeled(base, {{"stage", stage}, {"method", method}})
                        : labeled(base, {{"stage", stage},
                                         {"method", method},
                                         {"thread", t}}));
}

/// RAII scope timing one stage. `name` and `method` must outlive it
/// (string literals and to_string() results in practice); span args are
/// only built while a trace session is attached.
class Stage {
 public:
  explicit Stage(const char* name, double* seconds = nullptr,
                 const char* method = nullptr)
      : Stage(name, seconds, stage_histogram(name, method), method, -1) {}

  /// Hot-loop form: `hist` is the caller's pre-resolved handle (null
  /// observes nothing), and the span also names the `tile`.
  Stage(const char* name, double* seconds, Histogram* hist,
        const char* method, int tile)
      : span_(name, trace_session() != nullptr ? span_args(method, tile)
                                               : std::string()),
        seconds_(seconds),
        hist_(hist) {}

  ~Stage() {
    const double s = watch_.seconds();
    if (seconds_ != nullptr) *seconds_ += s;
    if (hist_ != nullptr) hist_->observe(s);
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  static std::string span_args(const char* method, int tile) {
    if (method == nullptr) return {};
    const std::string m = std::string("\"method\":\"") + method + "\"";
    return tile < 0 ? "{" + m + "}"
                    : "{\"tile\":" + std::to_string(tile) + "," + m + "}";
  }

  TraceSpan span_;  // first member: the span encloses the timed interval
  double* seconds_;
  Histogram* hist_;
  Stopwatch watch_;
};

}  // namespace pil::obs

#pragma once
/// \file stopwatch.hpp
/// Wall-clock stopwatch used to report per-method runtimes in the experiment
/// tables (the paper reports CPU seconds per solver per configuration). The
/// pipeline's own stages are timed with obs::Stage (pil/obs/stage.hpp).

#include <chrono>

namespace pil {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point start_;
};

}  // namespace pil

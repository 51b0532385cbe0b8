#pragma once
/// \file recorder.hpp
/// Per-layer measurement for the traced pilperf run: named sample series
/// and spans recorded from the benchmark's own code around calls into the
/// library's public API. The library itself is not instrumented here --
/// spans live in memory and are written at exit as Chrome trace-event JSON
/// (loadable by Perfetto and chrome://tracing).

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "pil/obs/trace.hpp"

namespace pilperf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

inline double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s;
}

inline double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

/// a / b, or 0 when b is 0 (a layer the workload never enters).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Thread-safe store of the traced run's series and spans. Series are
/// named after the layer call they measure; per_layer_metrics() in
/// pilperf.cpp turns them into the per-layer metrics. Spans go to an
/// obs::TraceSession that is never attached globally, so the library's
/// own spans stay off.
class Recorder {
 public:
  void add(std::string_view series, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    series_[std::string(series)].push_back(value);
  }

  void add_span(const char* name, double seconds, std::string args_json) {
    const double dur_us = seconds * 1e6;
    trace_.record({name, std::move(args_json), trace_.now_us() - dur_us,
                   dur_us, pil::obs::trace_thread_id()});
    add(name, seconds);
  }

  std::vector<double> series(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = series_.find(std::string(name));
    return it == series_.end() ? std::vector<double>{} : it->second;
  }

  /// Chrome trace-event JSON array.
  void write_trace(std::ostream& os) const { trace_.write_json(os); }

 private:
  pil::obs::TraceSession trace_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> series_;
};

/// RAII span around one layer call. A null recorder makes it a no-op, so
/// untraced runs and the untraced half of a traced run pay nothing.
class Span {
 public:
  Span(Recorder* rec, const char* name, std::string args_json = {})
      : rec_(rec), name_(name), args_(std::move(args_json)) {
    if (rec_ != nullptr) t0_ = Clock::now();
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now (idempotent); returns its duration in seconds.
  double stop() {
    if (rec_ == nullptr) return seconds_;
    seconds_ = seconds_between(t0_, Clock::now());
    rec_->add_span(name_, seconds_, std::move(args_));
    rec_ = nullptr;
    return seconds_;
  }

 private:
  Recorder* rec_;
  const char* name_;
  std::string args_;
  Clock::time_point t0_;
  double seconds_ = 0.0;
};

}  // namespace pilperf

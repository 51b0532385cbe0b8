#pragma once
/// \file metrics.hpp
/// Thread-safe metrics registry: counters, gauges, and log-scale timing
/// histograms. Designed for the `threads > 1` per-tile solve loop:
///
///   * recording into a metric handle is lock-free (relaxed atomics / CAS),
///   * handle lookup by name takes a mutex, so hot loops resolve their
///     handles once up front,
///   * the whole layer is off by default -- instrumented code guards on
///     metrics_enabled() (one relaxed atomic load), so an un-instrumented
///     run pays essentially nothing.
///
/// Metrics only *record*; they never feed back into any algorithm, which is
/// what keeps solver outputs bit-identical with metrics on or off and at
/// any thread count.

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pil::obs {

class JsonWriter;

/// Monotonic counter. Lock-free.
class Counter {
 public:
  void add(long long delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Last-write-wins double value (also supports add()). Lock-free.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram for positive measurements (primarily seconds).
/// Bucket b >= 1 covers [2^(b-32), 2^(b-31)); bucket 0 catches values
/// <= 2^-31 (including zero and negatives). All updates are lock-free.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void observe(double v) noexcept;

  /// The standard latency percentiles, extracted from the log2 buckets.
  struct Percentiles {
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };

  struct Snapshot {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;
    std::array<long long, kNumBuckets> buckets{};

    double mean() const { return count > 0 ? sum / count : 0.0; }
    /// Quantile estimate (geometric midpoint of the covering bucket),
    /// q in [0, 1]. Exact to within a factor of sqrt(2).
    double quantile(double q) const;
    /// p50/p90/p99 in one call -- what the run-report and bench emitters
    /// publish instead of raw bucket dumps.
    Percentiles percentiles() const;
  };

  Snapshot snapshot() const;
  void reset() noexcept;

  static int bucket_index(double v) noexcept;
  /// Lower edge of bucket `b` (0 for bucket 0).
  static double bucket_lower(int b) noexcept;

 private:
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::array<std::atomic<long long>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, long long>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Emit as one JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p90, p99}}}.
  /// Percentiles come from Histogram::Snapshot::percentiles(); the raw
  /// log2 buckets are only emitted when `include_buckets` is set (as
  /// "buckets": [[lower, count], ...nonzero only]).
  void write_json(JsonWriter& w, bool include_buckets = false) const;

  /// Emit as OpenMetrics text exposition (the format Prometheus scrapes):
  /// names sanitized to [a-zA-Z0-9_:], the `base{k=v,...}` label
  /// convention re-encoded as real OpenMetrics labels, counters suffixed
  /// `_total`, histograms as cumulative `_bucket{le="..."}` series plus
  /// `_sum` / `_count`, terminated by `# EOF`.
  void write_openmetrics(std::ostream& os) const;
};

/// Name -> metric registry. Lookup takes a mutex; returned references stay
/// valid for the registry's lifetime (node-based storage), so hot paths
/// hold handles, not names.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every metric, keeping registrations (and outstanding handles).
  void reset();
  /// Drop all registrations. Outstanding handles become dangling -- only
  /// call between runs, never while workers hold handles.
  void clear();

  MetricsSnapshot snapshot() const;

  /// snapshot().write_openmetrics(os) -- one call for scrape handlers.
  void write_openmetrics(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Process-wide registry used by the library's instrumentation points.
MetricsRegistry& metrics();

/// Master switch for the built-in instrumentation (off by default).
/// Instrumented code checks this before touching the registry.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

/// Compose a metric name with labels in a fixed, sortable format:
///   labeled("pil.stage_seconds",
///           {{"stage", "pilfill.solve.tile"}, {"method", "ILP-II"}})
///     == "pil.stage_seconds{stage=pilfill.solve.tile,method=ILP-II}"
/// Separator characters inside a label *value* (',', '=', '}', '\\') are
/// backslash-escaped so the OpenMetrics writer can split the composite
/// name back into real label dimensions losslessly.
std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

}  // namespace pil::obs

#pragma once
/// \file workloads.hpp
/// The four pilperf workloads. Each builds its inputs from the seed, times
/// a fixed number of whole passes over them (set by the run time), then
/// checks every output untimed. See README.md for what each workload
/// stresses and why.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recorder.hpp"

namespace pilperf {

struct Options {
  std::string workload;
  std::uint64_t seed = 20030601;
  /// Run time at the reference host speed; sets the number of passes.
  /// pilperf run requires --seconds.
  double seconds = 0.0;
  /// Traced run: record spans and layer series (the per-layer metrics).
  bool trace = false;
  /// Test hook: the run's first reference fingerprint must equal this.
  std::optional<std::uint64_t> expect_fingerprint;
};

/// One timed operation or set-up unit.
struct Sample {
  double wall_s = 0.0;     ///< as measured
  double compute_s = 0.0;  ///< the part of it that computed; the rest waited
  double speed = 1.0;      ///< host speed next to it (calibrate.hpp)
  bool spans = false;      ///< traced run: timed with spans on
  /// At the reference host speed: the computing part scaled, waits as
  /// measured.
  double scaled_s() const { return wall_s - compute_s + compute_s * speed; }
};

/// What one run measured and checked.
struct Outcome {
  long long attempted = 0;  ///< operations started in the timed loop
  long long failed = 0;     ///< threw, or returned a failure / failed tiles
  long long degraded = 0;   ///< degraded, node-limited or shed results
  std::vector<Sample> setup;  ///< one per set-up unit
  std::vector<Sample> ops;    ///< every timed operation
  double loop_s = 0.0;        ///< wall time of the timed loop
  /// Fill-induced delay tau of the workload's method, per solved state of
  /// the reference input (the same at every seed).
  std::vector<double> tau_ps;
  double peak_rss_mb = 0.0;
  long long check_misses = 0;               ///< output checks that failed
  std::vector<std::string> check_failures;  ///< the first few of them
  Recorder layers;  ///< traced run: series behind the per-layer metrics

  void check(bool ok, const std::string& what) {
    if (!ok && ++check_misses <= 20) check_failures.push_back(what);
  }
};

const std::vector<std::string>& workload_names();

/// Run one workload. Throws pil::Error on an unknown workload name.
void run_workload(const Options& options, Outcome& out);

}  // namespace pilperf

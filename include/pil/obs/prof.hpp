#pragma once
/// \file prof.hpp
/// In-process performance profiler: RAII measurement scopes reading Linux
/// `perf_event_open` hardware counters (cycles, instructions, branch
/// misses, cache misses) alongside wall time, process CPU time, and the
/// `getrusage` peak-RSS high-water mark; plus an EnvCapture of the build
/// and host environment so every emitted measurement is attributable.
///
/// Counters degrade gracefully: in containers that block the syscall, on
/// kernels with a restrictive `perf_event_paranoid`, on non-Linux hosts,
/// or when `PIL_PROF_DISABLE_PERF=1` is set, the counter fields are simply
/// absent (JSON null) and everything else still works. Like the rest of
/// pil::obs, profiling only *records*: wrapping a computation in a
/// ProfScope never changes its result.

#include <memory>
#include <optional>
#include <string>

namespace pil::obs {

class JsonWriter;

/// Hardware-counter readings for one scope. A field is nullopt when that
/// counter could not be opened (see the availability rules above); the
/// fields degrade independently, so a kernel that exposes cycles but not
/// cache misses still reports cycles.
struct ProfCounters {
  std::optional<long long> cycles;
  std::optional<long long> instructions;
  std::optional<long long> branch_misses;
  std::optional<long long> cache_misses;

  bool any() const {
    return cycles || instructions || branch_misses || cache_misses;
  }
  /// Instructions per cycle; nullopt unless both counters are present and
  /// cycles is non-zero.
  std::optional<double> ipc() const {
    if (!cycles || !instructions || *cycles <= 0) return std::nullopt;
    return static_cast<double>(*instructions) / static_cast<double>(*cycles);
  }
};

/// One scope's measurements. peak_rss_bytes is the *process* high-water
/// mark at sample time (getrusage ru_maxrss) -- a monotone watermark, not a
/// per-scope delta; 0 when the platform cannot report it.
struct ProfSample {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU time (all threads)
  long long peak_rss_bytes = 0;
  ProfCounters counters;

  /// Emit in value position: {"wall_seconds": ..., "cpu_seconds": ...,
  /// "peak_rss_bytes": ..., "cycles": N|null, "instructions": N|null,
  /// "branch_misses": N|null, "cache_misses": N|null, "ipc": X|null}.
  void write_json(JsonWriter& w) const;
};

/// True when hardware counters can actually be opened by this process
/// right now: Linux, the syscall probe succeeded, and
/// PIL_PROF_DISABLE_PERF is not set. The syscall probe is cached; the
/// environment variable is consulted on every call (tests toggle it).
bool perf_counters_available();

/// RAII measurement scope. Each scope opens its own counter fds (a few
/// microseconds), so scopes nest freely and can live on different threads;
/// counters are opened with `inherit`, so threads spawned inside the scope
/// are counted too (their totals fold in as they exit).
///
///   ProfScope prof;
///   run_workload();
///   ProfSample s = prof.stop();
class ProfScope {
 public:
  ProfScope();
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// Reading as of now; the scope keeps running. After stop(), returns the
  /// frozen sample.
  ProfSample sample() const;
  /// Freeze and return the final sample (idempotent).
  ProfSample stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Build + host facts embedded in every pil.bench.v2 document so numbers
/// are never compared across unlike environments by accident. git_sha,
/// compiler_flags, and build_type are baked in at CMake configure time
/// (so the sha can lag an uncommitted working tree); the rest is read from
/// the host at capture time.
struct EnvCapture {
  std::string git_sha;         ///< configure-time HEAD (short), or "unknown"
  std::string compiler;        ///< e.g. "gcc 12.2.0"
  std::string compiler_flags;  ///< CMAKE_CXX_FLAGS + build-type flags
  std::string build_type;      ///< CMAKE_BUILD_TYPE
  std::string cpu_model;       ///< /proc/cpuinfo "model name" (or uname -m)
  std::string hostname;
  std::string os;              ///< "Linux 6.1.0" style
  int core_count = 0;          ///< std::thread::hardware_concurrency
  bool perf_counters = false;  ///< perf_counters_available() at capture

  /// Emit in value position as a flat JSON object with the field names
  /// above.
  void write_json(JsonWriter& w) const;
};

/// Capture the environment. Stable within a process run (deterministic
/// modulo PIL_PROF_DISABLE_PERF changing between calls).
EnvCapture capture_env();

}  // namespace pil::obs

#pragma once
/// \file prof.hpp
/// EnvCapture: the build and host environment a measurement was taken in,
/// embedded in every benchmark run document so that numbers are never
/// compared across unlike environments by accident.

#include <string>

namespace pil::obs {

class JsonWriter;

/// Build + host facts. git_sha, compiler_flags, and build_type are baked in
/// at CMake configure time (so the sha can lag an uncommitted working
/// tree); the rest is read from the host at capture time.
struct EnvCapture {
  std::string git_sha;         ///< configure-time HEAD (short), or "unknown"
  std::string compiler;        ///< e.g. "gcc 12.2.0"
  std::string compiler_flags;  ///< CMAKE_CXX_FLAGS + build-type flags
  std::string build_type;      ///< CMAKE_BUILD_TYPE
  std::string cpu_model;       ///< /proc/cpuinfo "model name" (or uname -m)
  std::string hostname;
  std::string os;              ///< "Linux 6.1.0" style
  int core_count = 0;          ///< std::thread::hardware_concurrency

  /// Emit in value position as a flat JSON object with the field names
  /// above.
  void write_json(JsonWriter& w) const;
};

/// Capture the environment. Stable within a process run.
EnvCapture capture_env();

}  // namespace pil::obs

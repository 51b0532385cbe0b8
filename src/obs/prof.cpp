#include "pil/obs/prof.hpp"

#include <fstream>
#include <thread>

#include "pil/obs/json.hpp"

#if defined(__linux__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace pil::obs {

namespace {

std::string cpu_model_string() {
#if defined(__linux__)
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    return line.substr(begin);
  }
  utsname u{};
  if (uname(&u) == 0) return u.machine;
#endif
  return "unknown";
}

std::string os_string() {
#if defined(__linux__)
  utsname u{};
  if (uname(&u) == 0) return std::string(u.sysname) + " " + u.release;
#endif
  return "unknown";
}

std::string hostname_string() {
#if defined(__linux__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

EnvCapture capture_env() {
  EnvCapture env;
#if defined(PIL_GIT_SHA)
  env.git_sha = PIL_GIT_SHA;
#else
  env.git_sha = "unknown";
#endif
  env.compiler = compiler_string();
#if defined(PIL_CXX_FLAGS)
  env.compiler_flags = PIL_CXX_FLAGS;
#endif
#if defined(PIL_BUILD_TYPE)
  env.build_type = PIL_BUILD_TYPE;
#endif
  env.cpu_model = cpu_model_string();
  env.hostname = hostname_string();
  env.os = os_string();
  env.core_count = static_cast<int>(std::thread::hardware_concurrency());
  return env;
}

void EnvCapture::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("git_sha", git_sha);
  w.kv("compiler", compiler);
  w.kv("compiler_flags", compiler_flags);
  w.kv("build_type", build_type);
  w.kv("cpu_model", cpu_model);
  w.kv("hostname", hostname);
  w.kv("os", os);
  w.kv("core_count", core_count);
  w.end_object();
}

}  // namespace pil::obs

#include "pil/obs/prof.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "pil/obs/json.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace pil::obs {

namespace {

/// PIL_PROF_DISABLE_PERF set to anything but "" or "0" forces the no-perf
/// path. Read on every query so tests (and CI jobs) can toggle it without
/// restarting the process.
bool perf_disabled_by_env() {
  const char* v = std::getenv("PIL_PROF_DISABLE_PERF");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

double process_cpu_seconds() {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
#endif
  return 0.0;
}

long long peak_rss_bytes_now() {
#if defined(__linux__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0)
    return static_cast<long long>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
  return 0;
}

#if defined(__linux__)

int open_perf_counter(unsigned type, unsigned long long config) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // user-space only: works at paranoid level 2
  attr.exclude_hv = 1;
  attr.inherit = 1;  // fold in threads spawned inside the scope
  // pid=0, cpu=-1: this process, any CPU.
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0UL));
}

bool read_perf_counter(int fd, long long& out) {
  if (fd < 0) return false;
  long long v = 0;
  if (read(fd, &v, sizeof v) != static_cast<ssize_t>(sizeof v)) return false;
  out = v;
  return true;
}

#endif  // __linux__

/// One probe per process: can this kernel/container open a cycles counter
/// at all? (The env-var override is layered on top, un-cached.)
bool perf_syscall_works() {
#if defined(__linux__)
  static const bool works = [] {
    const int fd = open_perf_counter(PERF_TYPE_HARDWARE,
                                     PERF_COUNT_HW_CPU_CYCLES);
    if (fd < 0) return false;
    close(fd);
    return true;
  }();
  return works;
#else
  return false;
#endif
}

}  // namespace

bool perf_counters_available() {
  return !perf_disabled_by_env() && perf_syscall_works();
}

// ------------------------------------------------------------- ProfScope ----

struct ProfScope::Impl {
  static constexpr int kNumEvents = 4;

  std::chrono::steady_clock::time_point wall_start;
  double cpu_start = 0.0;
  int fds[kNumEvents] = {-1, -1, -1, -1};
  long long start_vals[kNumEvents] = {0, 0, 0, 0};
  bool frozen = false;
  ProfSample frozen_sample;

  void close_fds() {
#if defined(__linux__)
    for (int& fd : fds) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
#endif
  }
};

ProfScope::ProfScope() : impl_(std::make_unique<Impl>()) {
#if defined(__linux__)
  if (perf_counters_available()) {
    static constexpr std::pair<unsigned, unsigned long long>
        kEvents[Impl::kNumEvents] = {
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
        };
    for (int i = 0; i < Impl::kNumEvents; ++i) {
      impl_->fds[i] = open_perf_counter(kEvents[i].first, kEvents[i].second);
      if (impl_->fds[i] >= 0)
        read_perf_counter(impl_->fds[i], impl_->start_vals[i]);
    }
  }
#endif
  // Timestamps last, so fd setup cost stays outside the measurement.
  impl_->cpu_start = process_cpu_seconds();
  impl_->wall_start = std::chrono::steady_clock::now();
}

ProfScope::~ProfScope() {
  if (impl_) impl_->close_fds();
}

ProfSample ProfScope::sample() const {
  if (impl_->frozen) return impl_->frozen_sample;
  ProfSample s;
  s.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - impl_->wall_start)
                       .count();
  s.cpu_seconds = process_cpu_seconds() - impl_->cpu_start;
  s.peak_rss_bytes = peak_rss_bytes_now();
#if defined(__linux__)
  std::optional<long long>* fields[Impl::kNumEvents] = {
      &s.counters.cycles, &s.counters.instructions, &s.counters.branch_misses,
      &s.counters.cache_misses};
  for (int i = 0; i < Impl::kNumEvents; ++i) {
    long long v = 0;
    if (read_perf_counter(impl_->fds[i], v))
      *fields[i] = v - impl_->start_vals[i];
  }
#endif
  return s;
}

ProfSample ProfScope::stop() {
  if (!impl_->frozen) {
    impl_->frozen_sample = sample();
    impl_->frozen = true;
    impl_->close_fds();
  }
  return impl_->frozen_sample;
}

// ------------------------------------------------------------------ JSON ----

namespace {

void write_opt(JsonWriter& w, std::string_view key,
               const std::optional<long long>& v) {
  w.key(key);
  if (v)
    w.value(*v);
  else
    w.null();
}

}  // namespace

void ProfSample::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("wall_seconds", wall_seconds);
  w.kv("cpu_seconds", cpu_seconds);
  w.kv("peak_rss_bytes", peak_rss_bytes);
  write_opt(w, "cycles", counters.cycles);
  write_opt(w, "instructions", counters.instructions);
  write_opt(w, "branch_misses", counters.branch_misses);
  write_opt(w, "cache_misses", counters.cache_misses);
  w.key("ipc");
  if (const auto ipc = counters.ipc())
    w.value(*ipc);
  else
    w.null();
  w.end_object();
}

// ------------------------------------------------------------ EnvCapture ----

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
  env.perf_counters = perf_counters_available();
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
  w.kv("perf_counters", perf_counters);
  w.end_object();
}

}  // namespace pil::obs

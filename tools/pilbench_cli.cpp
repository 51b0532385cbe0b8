/// \file pilbench_cli.cpp
/// The unified benchmark runner and regression sentinel:
///
///   pilbench list [--filter S]
///   pilbench run  [--filter S] [--repetitions N] [--warmup M] [--json PATH]
///   pilbench compare BASELINE.json CANDIDATE.json
///                    [--threshold-mad K] [--min-ratio R] [--warn-only]
///
/// `run` times every matching registered scenario (all of them by default)
/// under the pil::obs profiler and emits one "pil.bench.v2" document with
/// the environment captured; counters degrade to null where perf is
/// unavailable (or PIL_PROF_DISABLE_PERF=1). `compare` reads two bench
/// documents (v2, or legacy v1 from the old emitters), flags per-scenario
/// median slowdowns beyond --threshold-mad baseline MADs (and at least
/// --min-ratio relative), prints a markdown table, and exits 3 on any
/// regression -- the CI gate. --warn-only reports but always exits 0.
///
/// Exit codes follow the shared CLI taxonomy (see docs/ROBUSTNESS.md):
/// 0 ok, 1 runtime error, 2 usage error, 3 completed with regressions.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "pil/obs/prof.hpp"
#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"

namespace {

using namespace pil;

// Shared CLI exit-code taxonomy (same as pilfill; see docs/ROBUSTNESS.md).
constexpr int kExitOk = 0;         // completed cleanly
constexpr int kExitError = 1;      // runtime pil::Error
constexpr int kExitUsage = 2;      // bad command line / nothing to run
constexpr int kExitDegraded = 3;   // completed, but regressions detected

int usage() {
  std::cerr
      << "usage:\n"
         "  pilbench list [--filter S]\n"
         "  pilbench run  [--filter S] [--repetitions N] [--warmup M] "
         "[--json PATH]\n"
         "  pilbench compare BASELINE.json CANDIDATE.json\n"
         "                   [--threshold-mad K] [--min-ratio R] "
         "[--warn-only]\n"
         "exit codes: 0 ok, 1 runtime error, 2 usage, 3 regressions\n";
  return kExitUsage;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt) const {
    const auto it = options.find(name);
    return it == options.end() ? dflt : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string name = a.substr(2);
      if (name == "warn-only" || name == "all") {
        args.options[name] = "1";
      } else {
        if (i + 1 >= argc) throw Error("option --" + name + " needs a value");
        args.options[name] = argv[++i];
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

std::string format_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%9.3f", seconds * 1e3);
  return buf;
}

std::string format_count(const std::optional<long long>& v) {
  if (!v) return "        -";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%9.2fM", static_cast<double>(*v) * 1e-6);
  return buf;
}

int cmd_list(const Args& args) {
  const auto scenarios =
      bench::Registry::global().match(args.get("filter", ""));
  for (const bench::Scenario* s : scenarios)
    std::printf("  %-32s %s\n", s->name.c_str(), s->description.c_str());
  std::cout << scenarios.size() << " scenario(s)\n";
  return kExitOk;
}

int cmd_run(const Args& args) {
  const std::string filter = args.get("filter", "");
  const int repetitions =
      static_cast<int>(parse_int(args.get("repetitions", "5"),
                                 "--repetitions"));
  const int warmup =
      static_cast<int>(parse_int(args.get("warmup", "1"), "--warmup"));
  const std::string json_path = args.get("json", "");

  const auto scenarios = bench::Registry::global().match(filter);
  if (scenarios.empty()) {
    std::cerr << "pilbench: no scenario matches filter '" << filter << "'\n";
    return kExitUsage;
  }

  const obs::EnvCapture env = obs::capture_env();
  std::cout << "pilbench: " << scenarios.size() << " scenario(s), "
            << repetitions << " repetition(s) + " << warmup << " warmup\n"
            << "  host " << env.hostname << " (" << env.cpu_model << ", "
            << env.core_count << " cores), " << env.compiler << " "
            << env.build_type << ", git " << env.git_sha << "\n"
            << "  hardware counters: "
            << (env.perf_counters ? "available" : "unavailable (null fields)")
            << "\n\n"
            << "  scenario                          median ms    mad ms  "
            << "   cycles     instrs   ipc   peakRSS\n";

  std::ofstream os;
  std::optional<bench::BenchWriter> out;
  if (!json_path.empty()) {
    os.open(json_path);
    PIL_REQUIRE(os.good(), "cannot open '" + json_path + "'");
    out.emplace(os, "pilbench");
  }

  for (const bench::Scenario* s : scenarios) {
    const bench::ScenarioResult r =
        bench::run_scenario(*s, repetitions, warmup);
    char ipc[16];
    if (r.cycles && r.instructions && *r.cycles > 0)
      std::snprintf(ipc, sizeof ipc, "%5.2f",
                    static_cast<double>(*r.instructions) /
                        static_cast<double>(*r.cycles));
    else
      std::snprintf(ipc, sizeof ipc, "    -");
    std::printf("  %-32s %s %s %s %s %s %6.1fM\n", r.name.c_str(),
                format_ms(r.wall_seconds.median).c_str(),
                format_ms(r.wall_seconds.mad).c_str(),
                format_count(r.cycles).c_str(),
                format_count(r.instructions).c_str(), ipc,
                static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0));
    if (out) out->add(r);
  }

  if (out) {
    out->finish();
    os << '\n';
    os.flush();
    PIL_REQUIRE(os.good(), "failed writing '" + json_path + "'");
    std::cout << "\nwrote " << json_path << "\n";
  }
  return kExitOk;
}

int cmd_compare(const Args& args) {
  if (args.positional.size() != 2) return usage();
  bench::CompareOptions options;
  options.threshold_mad =
      parse_double(args.get("threshold-mad", "4"), "--threshold-mad");
  options.min_ratio = parse_double(args.get("min-ratio", "1.1"),
                                   "--min-ratio");
  const auto baseline = bench::read_bench_file(args.positional[0]);
  const auto candidate = bench::read_bench_file(args.positional[1]);
  const bench::CompareReport report =
      bench::compare_benchmarks(baseline, candidate, options);
  bench::print_markdown(std::cout, report, options);
  if (report.has_regression()) {
    if (args.flag("warn-only")) {
      std::cout << "\nwarn-only: regressions reported, exiting 0\n";
      return kExitOk;
    }
    return kExitDegraded;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    bench::register_builtin_scenarios(bench::Registry::global());
    const Args args = parse_args(argc, argv);
    if (cmd == "list") return cmd_list(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "compare") return cmd_compare(args);
  } catch (const pil::Error& e) {
    std::cerr << "pilbench: " << e.what() << "\n";
    return kExitError;
  }
  return usage();
}

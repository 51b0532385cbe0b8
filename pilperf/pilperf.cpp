/// \file pilperf.cpp
/// The repository benchmark (see README.md and ../BENCHMARK.json).
///
///   pilperf run --workload W --seconds T [--seed S] [--trace 0|1]
///               [--trace-file PATH] [--json PATH] [--expect-fingerprint HEX]
///   pilperf compare [--benchmark BENCHMARK.json] --base RUN.json...
///                   --cand RUN.json...
///
/// `run` prints every metric with its unit and, as its last stdout line,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// untraced, the per-layer metrics with --trace 1. It exits 1 when an
/// output check fails. `compare` judges a change against its parent from
/// the --json documents of alternating runs.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pil/obs/json.hpp"
#include "pil/obs/prof.hpp"
#include "pil/util/error.hpp"
#include "recorder.hpp"
#include "workloads.hpp"

namespace pilperf {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The samples' times at the reference host speed (calibrate.hpp).
std::vector<double> scaled_s(const std::vector<Sample>& xs) {
  std::vector<double> out;
  for (const Sample& x : xs) out.push_back(x.scaled_s());
  return out;
}

/// The samples' times as measured.
std::vector<double> wall_s(const std::vector<Sample>& xs) {
  std::vector<double> out;
  for (const Sample& x : xs) out.push_back(x.wall_s);
  return out;
}

/// Median scaled operation time with spans on over the same without.
double trace_overhead(const std::vector<Sample>& ops) {
  std::vector<double> on, off;
  for (const Sample& x : ops) (x.spans ? on : off).push_back(x.scaled_s());
  return ratio(percentile(on, 0.5), percentile(off, 0.5));
}

std::vector<Metric> end_to_end_metrics(const Outcome& o) {
  return {
      {"setup_s", percentile(scaled_s(o.setup), 0.5), "s"},
      {"op_s_p50", percentile(scaled_s(o.ops), 0.5), "s"},
      {"tau_ps", mean(o.tau_ps), "ps"},
      {"peak_rss_mb", o.peak_rss_mb, "MiB"},
  };
}

/// Share of the total time spent in the slowest 1% of the samples.
double slowest_share(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.rbegin(), xs.rend());
  const std::size_t k = std::max<std::size_t>(1, (xs.size() + 99) / 100);
  double top = 0.0;
  for (std::size_t i = 0; i < k; ++i) top += xs[i];
  return ratio(top, sum(xs));
}

/// A layer the workload never enters reads 0.
std::vector<Metric> per_layer_metrics(const Outcome& o) {
  const Recorder& r = o.layers;
  auto ms = [&](const char* series, double p) {
    return percentile(r.series(series), p) * 1e3;
  };
  auto pct = [&](const char* series, double p) {
    return percentile(r.series(series), p);
  };
  auto avg = [&](const char* series) { return mean(r.series(series)); };
  auto total = [&](const char* series) { return sum(r.series(series)); };
  const std::vector<double> tiles = r.series("pilfill.solve_tile");
  const double resolved = total("state.tiles_resolved");
  const double reused = total("state.tiles_reused");
  const double hits = total("state.basis_hits");
  const double attempted = static_cast<double>(o.attempted);
  std::vector<double> speeds;
  for (const Sample& x : o.ops) speeds.push_back(x.speed);
  return {
      // End-to-end timings whose run-to-run spread exceeds 10% on a shared
      // host, so they carry no regression bound (see README.md).
      {"op_s_p90", percentile(scaled_s(o.ops), 0.9), "s"},
      {"ops_per_s",
       ratio(static_cast<double>(o.attempted - o.failed), o.loop_s), "1/s"},
      // The timings as measured, and the host speed that scaled them.
      {"op_wall_s_p50", percentile(wall_s(o.ops), 0.5), "s"},
      {"op_wall_s_p90", percentile(wall_s(o.ops), 0.9), "s"},
      {"setup_wall_s", percentile(wall_s(o.setup), 0.5), "s"},
      {"bench.host_speed", percentile(speeds, 0.5), "1"},
      {"layout.generate_ms", ms("layout.generate", 0.5), "ms"},
      {"grid.dissection_ms", ms("grid.dissection", 0.5), "ms"},
      {"grid.density_map_ms", ms("grid.density_map", 0.5), "ms"},
      {"rctree.extraction_ms", ms("rctree.extraction", 0.5), "ms"},
      {"fill.slack_scan_ms", ms("fill.slack_scan", 0.5), "ms"},
      {"density.targeting_ms", ms("density.targeting", 0.5), "ms"},
      {"pilfill.instance.build_ms", ms("pilfill.instance.build", 0.5), "ms"},
      {"pilfill.session.prep_ms", ms("pilfill.session.prep", 0.5), "ms"},
      {"pilfill.session.prep_other_ms", ms("pilfill.session.prep_other", 0.5),
       "ms"},
      {"pilfill.solve_ms_p50", ms("pilfill.solve", 0.5), "ms"},
      {"pilfill.solve_ms_p99", ms("pilfill.solve", 0.99), "ms"},
      {"pilfill.solve.tiles_ms_p50", ms("pilfill.solve.tiles", 0.5), "ms"},
      {"pilfill.evaluate_ms_p50", ms("pilfill.evaluate", 0.5), "ms"},
      {"pilfill.assemble_ms_p50", ms("pilfill.assemble", 0.5), "ms"},
      {"fill.check_ms_p50", ms("fill.check", 0.5), "ms"},
      {"fill.check_features", pct("fill.check_features", 0.5), "count"},
      {"lp.solves", avg("work.lp_solves"), "count"},
      {"lp.iterations", avg("work.lp_iterations"), "count"},
      {"lp.dual_iterations", avg("work.lp_dual_iterations"), "count"},
      {"lp.warm_starts", avg("work.lp_warm_starts"), "count"},
      {"lp.iterations_per_solve",
       ratio(total("work.lp_iterations"), total("work.lp_solves")), "count"},
      {"lp.us_per_iteration",
       ratio(total("work.tiles_s") * 1e6, total("work.lp_iterations")), "us"},
      {"ilp.bb_nodes", avg("work.ilp_bb_nodes"), "count"},
      {"ilp.nodes_per_tile",
       ratio(total("work.ilp_bb_nodes"), total("work.tiles")), "count"},
      {"ilp.node_limit_tiles", avg("work.ilp_node_limit_tiles"), "count"},
      {"pilfill.solve.tile_ms_p50", percentile(tiles, 0.5) * 1e3, "ms"},
      {"pilfill.solve.tile_ms_p99", percentile(tiles, 0.99) * 1e3, "ms"},
      {"pilfill.solve.tile_ms_max", percentile(tiles, 1.0) * 1e3, "ms"},
      {"pilfill.solve.slowest1pct_share", slowest_share(tiles), "1"},
      {"pilfill.solve.tiles_replayed", static_cast<double>(tiles.size()),
       "count"},
      {"pilfill.session.apply_edit_ms_p50",
       ms("pilfill.session.apply_edit", 0.5), "ms"},
      {"pilfill.session.apply_edit_ms_p99",
       ms("pilfill.session.apply_edit", 0.99), "ms"},
      {"pilfill.session.columns_rescanned", avg("state.columns_rescanned"),
       "count"},
      {"pilfill.session.tiles_dirty", avg("state.tiles_dirty"), "count"},
      {"pilfill.session.tiles_retargeted", avg("state.tiles_retargeted"),
       "count"},
      {"pilfill.session.tiles_resolved", avg("state.tiles_resolved"),
       "count"},
      {"pilfill.session.tiles_reused", avg("state.tiles_reused"), "count"},
      {"pilfill.session.reuse_ratio", ratio(reused, resolved + reused), "1"},
      {"pilfill.session.basis_hit_ratio",
       ratio(hits, hits + total("state.basis_misses")), "1"},
      {"service.transport_ms_p50", pct("service.transport", 0.5), "ms"},
      {"service.transport_ms_p99", pct("service.transport", 0.99), "ms"},
      {"service.admission_ms_p50", pct("service.admission", 0.5), "ms"},
      {"service.queue_ms_p50", pct("service.queue", 0.5), "ms"},
      {"service.queue_ms_p99", pct("service.queue", 0.99), "ms"},
      {"service.session_ms_p50", pct("service.session", 0.5), "ms"},
      {"service.session_ms_p99", pct("service.session", 0.99), "ms"},
      {"service.solve_ms_p50", pct("service.solve", 0.5), "ms"},
      {"service.solve_ms_p99", pct("service.solve", 0.99), "ms"},
      {"service.write_ms_p50", pct("service.write", 0.5), "ms"},
      {"service.queue_peak", total("service.queue_peak"), "count"},
      {"service.shed", total("service.shed"), "count"},
      {"failed_ratio", ratio(static_cast<double>(o.failed), attempted), "1"},
      {"degraded_ratio", ratio(static_cast<double>(o.degraded), attempted),
       "1"},
      {"bench.trace_overhead_ratio", trace_overhead(o.ops), "1"},
      {"bench.ops", attempted, "count"},
  };
}

void write_metrics(pil::obs::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr
      << "pilperf: " << why << "\n"
      << "usage: pilperf run --workload W --seconds T [--seed S]\n"
         "                   [--trace 0|1] [--trace-file PATH] [--json "
         "PATH]\n"
         "                   [--expect-fingerprint HEX]\n"
         "       pilperf compare [--benchmark BENCHMARK.json] --base "
         "RUN.json...\n"
         "                       --cand RUN.json...\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  Options opt;
  std::string trace_file, json_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else if (arg == "--json") {
      json_file = value;
    } else if (arg == "--expect-fingerprint") {
      opt.expect_fingerprint = std::stoull(value, nullptr, 16);
    } else {
      usage("unknown option " + arg);
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                opt.workload) == workload_names().end())
    usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0)) usage("--seconds must be given and positive");

  const pil::obs::EnvCapture env = pil::obs::capture_env();
  const bool release = env.build_type == "Release";
  if (!release)
    std::cerr << "pilperf: WARNING: build type is '" << env.build_type
              << "', not Release -- these numbers are not valid for "
                 "comparison\n";

  Outcome out;
  run_workload(opt, out);
  const bool correct = out.check_misses == 0 && out.failed == 0;
  const bool valid = correct && release;
  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(out) : end_to_end_metrics(out);

  std::cout << "pilperf " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " ops=" << out.attempted << " failed=" << out.failed << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << pil::obs::json_number(m.value)
              << " " << m.unit << "\n";
  for (const std::string& f : out.check_failures)
    std::cerr << "pilperf: CHECK FAILED: " << f << "\n";
  if (out.check_misses > 0)
    std::cerr << "pilperf: " << out.check_misses
              << " output check(s) failed\n";

  if (!json_file.empty()) {
    std::ofstream os(json_file);
    pil::obs::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "pilperf.run.v1");
    w.kv("workload", opt.workload);
    w.kv("seed", static_cast<unsigned long long>(opt.seed));
    w.kv("seconds", opt.seconds);
    w.kv("trace", opt.trace);
    w.kv("valid", valid);
    w.kv("correct", correct);
    w.kv("attempted", out.attempted);
    w.kv("failed", out.failed);
    w.kv("degraded", out.degraded);
    w.kv("check_misses", out.check_misses);
    w.key("check_failures");
    w.begin_array();
    for (const std::string& f : out.check_failures) w.value(f);
    w.end_array();
    w.key("env");
    env.write_json(w);
    w.key("metrics");
    write_metrics(w, metrics);
    w.end_object();
    os << '\n';
    PIL_REQUIRE(os.good(), "cannot write '" + json_file + "'");
  }
  if (opt.trace && !trace_file.empty()) {
    std::ofstream os(trace_file);
    out.layers.write_trace(os);
    PIL_REQUIRE(os.good(), "cannot write '" + trace_file + "'");
  }

  std::ostringstream line;
  pil::obs::JsonWriter w(line, /*pretty=*/false);
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics");
  write_metrics(w, metrics);
  w.end_object();
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

// ---- compare ----------------------------------------------------------------

pil::obs::JsonValue read_json(const std::string& path) {
  std::ifstream is(path);
  PIL_REQUIRE(is.good(), "cannot read '" + path + "'");
  std::stringstream ss;
  ss << is.rdbuf();
  return pil::obs::parse_json(ss.str());
}

/// Python's statistics.quantiles(xs, n=4) (the default 'exclusive'
/// method), so the spreads match the ones BENCHMARK.json was set from.
std::array<double, 3> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const long long ld = static_cast<long long>(xs.size());
  const double median = percentile(xs, 0.5);
  if (ld < 2) return {median, median, median};
  std::array<double, 3> q{};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * (ld + 1) / 4, 1LL, ld - 1);
    const long long delta = i * (ld + 1) - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

struct Runs {
  std::map<std::string, std::vector<double>> metric;  ///< in run order
  double attempted = 0.0, failed = 0.0;
};

/// workload -> its runs, from pilperf run --json documents. Invalid runs
/// (failed checks, non-Release build) are left out, loudly.
std::map<std::string, Runs> load_runs(const std::vector<std::string>& paths) {
  std::map<std::string, Runs> by_workload;
  for (const std::string& path : paths) {
    const pil::obs::JsonValue doc = read_json(path);
    const std::string workload = doc.at("workload").str_v;
    Runs& runs = by_workload[workload];
    runs.attempted += doc.at("attempted").num_v;
    runs.failed += doc.at("failed").num_v;
    if (!doc.at("valid").bool_v) {
      std::cerr << "pilperf compare: WARNING: " << path
                << " is not a valid run; its metrics are left out\n";
      continue;
    }
    for (const auto& [name, m] : doc.at("metrics").members)
      runs.metric[name].push_back(m.at("value").num_v);
  }
  return by_workload;
}

struct Bound {
  std::string name;
  bool lower_is_better;
  double bound;
};

/// The choosing-metrics rule for one (workload, metric): improved needs at
/// least 10 pairs, a win in 9/10 of them and a median gap wider than the
/// parent's quartile spread; a parent spread wider than the bound leaves
/// the metric unresolved unless every candidate run beats every parent run.
std::string verdict(const Bound& b, const std::vector<double>& base,
                    const std::vector<double>& cand) {
  const std::size_t n = std::min(base.size(), cand.size());
  if (n < 10) return "unresolved";
  const double sign = b.lower_is_better ? 1.0 : -1.0;  // > 0: cand worse
  std::size_t wins = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (sign * (cand[i] - base[i]) < 0) ++wins;
  const std::array<double, 3> q = quartiles(base);
  const double bmed = q[1], cmed = quartiles(cand)[1];
  const double iqr = q[2] - q[0];
  if (wins * 10 >= 9 * n && std::abs(cmed - bmed) > iqr) return "improved";
  if (iqr > b.bound * std::abs(bmed)) {
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [cmin, cmax] = std::minmax_element(cand.begin(), cand.end());
    const bool all_better =
        b.lower_is_better ? *cmax < *bmin : *cmin > *bmax;
    return all_better ? "improved" : "unresolved";
  }
  if (sign * (cmed - bmed) > b.bound * std::abs(bmed)) return "regressed";
  return "unchanged";
}

int compare(int argc, char** argv) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> base_paths, cand_paths;
  std::vector<std::string>* into = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else if (arg == "--base") {
      into = &base_paths;
    } else if (arg == "--cand") {
      into = &cand_paths;
    } else if (into != nullptr) {
      into->push_back(arg);
    } else {
      usage("compare: expected --base or --cand before " + arg);
    }
  }
  if (base_paths.empty() || cand_paths.empty())
    usage("compare needs --base and --cand run documents");

  const pil::obs::JsonValue spec = read_json(benchmark);
  std::vector<Bound> bounds;
  for (const pil::obs::JsonValue& m : spec.at("end_to_end").items)
    bounds.push_back({m.at("name").str_v, m.at("better").str_v == "lower",
                      m.at("bound").num_v});
  const std::map<std::string, Runs> base = load_runs(base_paths);
  const std::map<std::string, Runs> cand = load_runs(cand_paths);

  bool regressed = false;
  std::printf("%-16s %-14s %14s %14s %8s  %s\n", "workload", "metric",
              "base median", "cand median", "change", "verdict");
  for (const auto& [workload, b] : base) {
    const auto c = cand.find(workload);
    if (c == cand.end()) continue;
    for (const Bound& bound : bounds) {
      const auto bv = b.metric.find(bound.name);
      const auto cv = c->second.metric.find(bound.name);
      if (bv == b.metric.end() || cv == c->second.metric.end()) continue;
      const std::string v = verdict(bound, bv->second, cv->second);
      regressed = regressed || v == "regressed";
      const double bmed = quartiles(bv->second)[1];
      const double cmed = quartiles(cv->second)[1];
      std::printf("%-16s %-14s %14.6g %14.6g %+7.2f%%  %s\n",
                  workload.c_str(), bound.name.c_str(), bmed, cmed,
                  100.0 * ratio(cmed - bmed, bmed), v.c_str());
    }
    const double bf = ratio(b.failed, b.attempted);
    const double cf = ratio(c->second.failed, c->second.attempted);
    const char* v = cf > bf ? "regressed" : cf < bf ? "improved" : "unchanged";
    regressed = regressed || cf > bf;
    std::printf("%-16s %-14s %14.6g %14.6g %8s  %s\n", workload.c_str(),
                "failed_ratio", bf, cf, "", v);
  }
  return regressed ? 1 : 0;
}

}  // namespace
}  // namespace pilperf

int main(int argc, char** argv) {
  if (argc < 2) pilperf::usage("missing command");
  const std::string command = argv[1];
  try {
    if (command == "run") return pilperf::run(argc, argv);
    if (command == "compare") return pilperf::compare(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pilperf: error: " << e.what() << "\n";
    return 2;
  }
  pilperf::usage("unknown command '" + command + "'");
}

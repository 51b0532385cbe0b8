/// \file pilfill_cli.cpp
/// The `pilfill` command-line tool: density/timing analysis, fill synthesis,
/// testcase generation, and paper-table reproduction without writing any
/// C++. Layouts are .pld (native) or .def (DEF-lite with default layers).
///
///   pilfill gen out.pld [--die D] [--nets N] [--seed S] [--two-layer]
///   pilfill analyze layout.{pld,def} [--window W] [--r R] [--layer L]
///   pilfill fill layout.{pld,def} [--window W] [--r R] [--layer L]
///                [--method normal|ilp1|ilp2|greedy|convex] [--weighted]
///                [--mode I|II|III] [--threads N]
///                [--out filled.pld] [--svg out.svg]
///   pilfill table layout.{pld,def} [--weighted]   # all 4 methods, one row
///
/// Observability (fill/table): --metrics-json <path> writes a structured
/// run report (schema pil.run_report.v3), --trace-json <path> writes a
/// Chrome/Perfetto trace of the pipeline stages and per-tile solves,
/// --metrics-openmetrics <path> writes the registry in OpenMetrics text
/// format, and --log-level debug|info|warn|error|off sets the library log
/// threshold. The flight recorder (always-on event journal) dumps a
/// pil.flight.v1 postmortem on failure/deadline/fatal signal, or on
/// request via --flight-dump <path>; --no-journal disarms it.

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "pil/pil.hpp"

namespace {

using namespace pil;

// Exit-code taxonomy (documented in README.md):
// 0 = success, 1 = runtime pil::Error, 2 = usage error, 3 = completed but
// degraded (tiles served by the degradation ladder under --strict, or
// check/score violations).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitDegraded = 3;

using util::Args;

// Every option a subcommand reads. Flags take no value; the other options
// consume the next argument.
const std::set<std::string> kFlags = {"weighted",   "two-layer",
                                      "strict",     "fail-fast",
                                      "no-degrade", "no-journal"};
const std::set<std::string> kValueOptions = {
    "allowance-ps", "die", "edit-script", "fault", "fill-layer",
    "flight-dump", "flow-deadline", "gds", "layer", "lef", "log-level",
    "max-density", "method", "metrics-json", "metrics-openmetrics", "mode",
    "nets", "out", "r", "seed", "svg", "threads", "tile-deadline",
    "trace-json", "window"};

layout::Layout load_layout(const std::string& path, const Args& args) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".def") {
    layout::DefReadOptions options;
    if (args.flag("lef")) {
      options.layers = layout::read_lef_file(args.get("lef", ""));
    } else {
      layout::Layer m3;
      m3.name = "m3";
      options.layers.push_back(m3);
      layout::Layer m4 = m3;
      m4.name = "m4";
      m4.preferred_direction = layout::Orientation::kVertical;
      options.layers.push_back(m4);
    }
    return layout::read_def_file(path, options);
  }
  return layout::read_pld_file(path);
}

pilfill::FlowConfig flow_from_args(const Args& args) {
  pilfill::FlowConfig config;
  config.window_um = args.num("window", 32.0);
  config.r = args.num("r", 2);
  config.layer = args.num<layout::LayerId>("layer", 0);
  config.threads = args.num("threads", 1);
  if (args.flag("weighted"))
    config.objective = pilfill::Objective::kWeighted;
  std::string mode = args.get("mode", "iii");
  for (char& c : mode) c = static_cast<char>(std::tolower(c));
  config.solver_mode = pilfill::slack_mode_from_wire(mode);
  config.tile_deadline_seconds = args.num("tile-deadline", 0.0);
  config.flow_deadline_seconds = args.num("flow-deadline", 0.0);
  config.degrade_on_failure = !args.flag("no-degrade");
  config.fail_fast = args.flag("fail-fast");
  config.fault_spec = args.get("fault", "");
  return config;
}

/// A session for a command that reads only its prep (analyze, score): it
/// requires no fill, so the prep skips targeting and instance build. The
/// config is validated first, so a bad option fails as it would in fill.
pilfill::FillSession prep_only_session(const layout::Layout& l,
                                       const Args& args) {
  pilfill::FlowConfig config = flow_from_args(args);
  config.validate(l);
  config.required_per_tile.assign(
      grid::Dissection(l.die(), config.window_um, config.r).num_tiles(), 0);
  return pilfill::FillSession(l, config);
}

/// --flight-dump target, staged where both the normal exit paths and the
/// async-signal handler can reach it. The handler may only call async-
/// signal-safe functions, so the path lives in a fixed char buffer and is
/// opened with open(2) inside the handler itself.
std::string g_flight_path;
char g_signal_dump_path[1024] = {0};

void fatal_signal_dump(int sig) {
  int fd = 2;  // stderr when no --flight-dump path was staged
#ifndef _WIN32
  if (g_signal_dump_path[0] != '\0') {
    const int opened =
        ::open(g_signal_dump_path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (opened >= 0) fd = opened;
  }
#endif
  obs::write_flight_signal_safe(fd, "signal");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_fatal_signal_handlers(const std::string& flight_path) {
  std::snprintf(g_signal_dump_path, sizeof(g_signal_dump_path), "%s",
                flight_path.c_str());
  std::signal(SIGSEGV, fatal_signal_dump);
  std::signal(SIGABRT, fatal_signal_dump);
  std::signal(SIGFPE, fatal_signal_dump);
#ifdef SIGBUS
  std::signal(SIGBUS, fatal_signal_dump);
#endif
}

/// Post-run flight-recorder policy: an explicit --flight-dump path is
/// always written; without one, a run with tile failures still auto-dumps
/// to pil.flight.json so the postmortem survives unplanned bad runs.
void flight_dump_after(const Args& args, const pilfill::FlowResult& res) {
  bool deadline = false, failed = false;
  std::string detail;
  for (const auto& mr : res.methods) {
    for (const auto& f : mr.failures) {
      failed = true;
      if (f.reason == pilfill::FailureReason::kTileDeadline ||
          f.reason == pilfill::FailureReason::kFlowDeadline)
        deadline = true;
      if (detail.empty())
        detail = "tile " + std::to_string(f.tile) + ": " +
                 std::string(to_string(f.reason));
    }
  }
  std::string path = args.get("flight-dump", "");
  if (path.empty()) {
    if (!failed || !obs::journal_armed()) return;
    path = "pil.flight.json";
  }
  obs::FlightWriteOptions options;
  options.cause = deadline ? "deadline" : failed ? "failure" : "requested";
  options.detail = detail;
  if (obs::write_flight_file(path, options))
    std::cout << "wrote " << path << " (pil.flight.v1, cause: "
              << options.cause << ")\n";
  else
    std::cerr << "pilfill: cannot write flight dump '" << path << "'\n";
}

/// Degraded-but-completed detection for the --strict exit code: any tile
/// served by the degradation ladder (or left empty by a failure) marks the
/// flow degraded. Also prints a per-method summary so the ladder is never
/// silent on the console.
bool report_degradation(const pilfill::FlowResult& res) {
  bool degraded = false;
  for (const auto& mr : res.methods) {
    if (mr.failures.empty()) continue;
    degraded = true;
    std::cout << to_string(mr.method) << ": " << mr.tiles_degraded
              << " tile(s) served degraded, " << mr.tiles_failed
              << " tile(s) failed";
    const pilfill::TileFailure& f = mr.failures.front();
    std::cout << " (first: tile " << f.tile << " " << to_string(f.reason)
              << " -> " << to_string(f.served_by) << ")\n";
  }
  return degraded;
}

/// Turns the observability layer on for the duration of one command when
/// --metrics-json / --trace-json were given, and writes the trace file on
/// finish(). The metrics report itself is written by the command (it needs
/// the FlowResult).
class ObsScope {
 public:
  explicit ObsScope(const Args& args)
      : metrics_path_(args.get("metrics-json", "")),
        openmetrics_path_(args.get("metrics-openmetrics", "")),
        trace_path_(args.get("trace-json", "")) {
    if (!metrics_path_.empty() || !openmetrics_path_.empty()) {
      obs::metrics().clear();
      obs::set_metrics_enabled(true);
    }
    if (!trace_path_.empty()) {
      session_.emplace();
      obs::set_trace_session(&*session_);
    }
  }

  ~ObsScope() {
    obs::set_trace_session(nullptr);
    obs::set_metrics_enabled(false);
  }

  bool metrics_requested() const { return !metrics_path_.empty(); }

  /// Write the trace file (if requested) and the run report (if requested).
  void finish(const pilfill::FlowConfig& config,
              const pilfill::FlowResult& result, const std::string& input) {
    if (session_) {
      obs::set_trace_session(nullptr);
      std::ofstream os(trace_path_);
      if (!os.good()) throw Error("cannot open trace file '" + trace_path_ + "'");
      session_->write_json(os);
      std::cout << "wrote " << trace_path_ << " (" << session_->num_events()
                << " trace events)\n";
    }
    if (!metrics_path_.empty()) {
      pilfill::RunReportOptions options;
      options.input = input;
      pilfill::write_run_report_file(metrics_path_, config, result, options);
      std::cout << "wrote " << metrics_path_ << "\n";
    }
    if (!openmetrics_path_.empty()) {
      std::ofstream os(openmetrics_path_);
      if (!os.good())
        throw Error("cannot open openmetrics file '" + openmetrics_path_ + "'");
      obs::metrics().write_openmetrics(os);
      std::cout << "wrote " << openmetrics_path_ << " (OpenMetrics)\n";
    }
  }

 private:
  std::string metrics_path_;
  std::string openmetrics_path_;
  std::string trace_path_;
  std::optional<obs::TraceSession> session_;
};

/// Replay the wire-edit script `is` (read from `path`) against a
/// FillSession, re-solving after each `solve` line and once more at the
/// end. Line grammar (\# = comment):
///   add <net> <x1> <y1> <x2> <y2> <width>
///   remove <segment-id>
///   move <segment-id> <dx> <dy>
///   solve
pilfill::FlowResult run_edit_script(pilfill::FillSession& session,
                                    pilfill::Method method,
                                    const std::string& path,
                                    std::istream& is) {
  pilfill::FlowResult res = session.solve({method});

  std::string line;
  int lineno = 0, edits = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    try {
      pilfill::WireEdit edit;
      if (op == "add") {
        long long net;
        double x1, y1, x2, y2, w;
        if (!(ls >> net >> x1 >> y1 >> x2 >> y2 >> w))
          throw Error("add needs: <net> <x1> <y1> <x2> <y2> <width>");
        edit = pilfill::WireEdit::add_segment(
            static_cast<layout::NetId>(net), {x1, y1}, {x2, y2}, w);
      } else if (op == "remove") {
        long long sid;
        if (!(ls >> sid)) throw Error("remove needs: <segment-id>");
        edit = pilfill::WireEdit::remove_segment(
            static_cast<layout::SegmentId>(sid));
      } else if (op == "move") {
        long long sid;
        double dx, dy;
        if (!(ls >> sid >> dx >> dy))
          throw Error("move needs: <segment-id> <dx> <dy>");
        edit = pilfill::WireEdit::move_segment(
            static_cast<layout::SegmentId>(sid), dx, dy);
      } else if (op == "solve") {
        res = session.solve({method});
        std::cout << "solve: placed " << res.methods[0].placed << ", delay +"
                  << res.methods[0].impact.delay_ps << " ps\n";
        continue;
      } else {
        throw Error("unknown edit op '" + op + "'");
      }
      const pilfill::EditStats es = session.apply_edit(edit);
      ++edits;
      std::cout << op << ": segment " << es.segment << ", "
                << es.columns_rescanned << " column(s) rescanned, "
                << es.tiles_dirty << " tile(s) dirty ("
                << format_double(es.seconds * 1e3, 3) << " ms)\n";
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
  }
  res = session.solve({method});
  const pilfill::SessionStats& st = session.stats();
  std::cout << "edit script: " << edits << " edit(s), " << st.tiles_resolved
            << " tile solve(s), " << st.tiles_reused
            << " served from cache (" << session.tiles_total()
            << " tiles total)\n";
  return res;
}

int cmd_gen(const Args& args) {
  if (args.positional.empty()) throw Error("gen: output path required");
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = args.num("die", 128.0);
  cfg.num_nets = args.num("nets", 150);
  cfg.seed = args.num<std::uint64_t>("seed", 1);
  cfg.separate_branch_layer = args.flag("two-layer");
  layout::GeneratorStats stats;
  const layout::Layout l = layout::generate_synthetic_layout(cfg, &stats);
  layout::write_pld_file(l, args.positional[0]);
  std::cout << "wrote " << args.positional[0] << ": " << stats.nets_placed
            << " nets, " << stats.segments << " segments, " << stats.sinks
            << " sinks\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) throw Error("analyze: layout path required");
  const layout::Layout l = load_layout(args.positional[0], args);
  const pilfill::FillSession session = prep_only_session(l, args);
  const pilfill::FlowConfig& config = session.config();
  const grid::Dissection& dis = session.dissection();
  const grid::DensityStats stats = session.wires().stats();

  double worst_delay = 0, total_delay = 0;
  int sinks = 0;
  for (const auto& t : session.trees()) {
    for (int s = 0; s < t.num_sinks(); ++s) {
      worst_delay = std::max(worst_delay, t.sink_delay_ps(s));
      total_delay += t.sink_delay_ps(s);
      ++sinks;
    }
  }
  const fill::SlackColumns& slack = session.solver_slack();

  std::cout << "layout            : " << l.num_nets() << " nets, "
            << l.num_segments() << " segments, die " << l.die().width()
            << " x " << l.die().height() << " um\n"
            << "dissection        : " << dis.tiles_x() << " x "
            << dis.tiles_y() << " tiles (" << dis.tile_um() << " um), "
            << dis.num_windows() << " windows\n"
            << "window density    : [" << stats.min_density << ", "
            << stats.max_density << "], variation " << stats.variation()
            << "\n"
            << "timing (Elmore)   : " << sinks << " sinks, worst "
            << worst_delay << " ps, mean " << (sinks ? total_delay / sinks : 0)
            << " ps\n"
            << "slack columns     : " << slack.columns().size() << " ("
            << to_string(config.solver_mode) << "), capacity "
            << slack.total_capacity() << " features\n";
  std::cout << "\nwindow density heatmap (' ' = min, '@' = max):\n"
            << grid::render_density_ascii(session.wires());
  return 0;
}

int cmd_fill(const Args& args) {
  if (args.positional.empty()) throw Error("fill: layout path required");
  const layout::Layout input = load_layout(args.positional[0], args);
  const std::string method_name = args.get("method", "ilp2");
  const bool anneal = method_name == "anneal";
  const bool budgeted = !anneal && args.flag("allowance-ps");
  // The method and the edit script are checked before the prep, so a bad
  // name or path costs no work. An edit script re-solves one method on the
  // session; the anneal and budgeted flows would fill the unedited layout.
  const pilfill::Method method =
      anneal ? pilfill::Method::kConvex
             : pilfill::method_from_wire(method_name);
  const std::string script_path = args.get("edit-script", "");
  if (!script_path.empty() && (anneal || budgeted))
    throw util::UsageError(
        std::string("--edit-script cannot be combined with ") +
        (anneal ? "--method anneal" : "--allowance-ps"));
  std::ifstream script(script_path);
  if (!script_path.empty() && !script.good())
    throw Error("cannot open edit script '" + script_path + "'");
  ObsScope obs_scope(args);
  pilfill::FillSession session(input, flow_from_args(args));
  const pilfill::FlowConfig& config = session.config();
  const layout::Layout& l = session.layout();  // as --edit-script left it

  // The two extension flows report under the session's header, with their
  // placement as the one method row (labelled Convex: no Method names them).
  pilfill::FlowResult res;
  if (anneal || budgeted) {
    res = session.solve({});
    pilfill::MethodResult mr;
    mr.method = pilfill::Method::kConvex;  // display only
    if (anneal) {
      const pilfill::AnnealFlowResult ann =
          pilfill::run_annealed_pil_fill_flow(session);
      mr.impact = ann.impact;
      mr.solve_seconds = ann.solve_seconds;
      mr.placed = static_cast<long long>(ann.features.size());
      mr.placement.features = ann.features;
      mr.placement.features_per_tile = ann.features_per_tile;
      std::cout << "anneal: model cost "
                << format_double(ann.initial_cost_ps, 4) << " -> "
                << format_double(ann.final_cost_ps, 4) << " ps ("
                << ann.moves_accepted << "/" << ann.moves_tried
                << " moves)\n";
    } else {
      pilfill::BudgetedConfig budgets;
      budgets.net_cap_budget_ff = pilfill::budgets_from_delay_ps(
          session.pieces(), static_cast<int>(l.num_nets()),
          args.num("allowance-ps", 0.0));
      const pilfill::BudgetedFlowResult b =
          pilfill::run_budgeted_pil_fill_flow(session, budgets);
      mr.impact = b.impact;
      mr.solve_seconds = b.solve_seconds;
      mr.placed = b.allocation.placed;
      mr.shortfall = b.allocation.shortfall;
      mr.placement.features = b.features;
      std::cout << "budgeted: max utilization "
                << format_double(b.allocation.max_budget_utilization, 3)
                << "\n";
    }
    mr.density_after = session.density_with(mr.placement.features).stats();
    res.methods.push_back(std::move(mr));
  } else if (!script_path.empty()) {
    res = run_edit_script(session, method, script_path, script);
  } else {
    res = session.solve({method});
  }
  const auto& mr = res.methods[0];
  std::cout << (budgeted ? "budgeted" : method_name) << ": placed "
            << mr.placed << " features (shortfall " << mr.shortfall
            << ") in " << mr.solve_seconds << " s\n"
            << "delay impact: +" << mr.impact.delay_ps << " ps (weighted +"
            << mr.impact.weighted_delay_ps << " ps)\n"
            << "density: [" << res.density_before.min_density << ", "
            << res.density_before.max_density << "] -> ["
            << mr.density_after.min_density << ", "
            << mr.density_after.max_density << "]\n";
  obs_scope.finish(config, res, args.positional[0]);

  if (args.flag("svg")) {
    layout::SvgOptions svg;
    svg.grid_um = config.window_um / config.r;
    layout::write_svg_file(l, mr.placement.features, args.get("svg", ""), svg);
    std::cout << "wrote " << args.get("svg", "") << "\n";
  }
  if (args.flag("out")) {
    layout::Layout filled = l;
    int count = 0;
    for (const auto& f : mr.placement.features) {
      layout::Net net;
      net.name = "FILL" + std::to_string(count++);
      net.source = f.center();
      const layout::NetId nid = filled.add_net(net);
      filled.add_segment(nid, config.layer, {f.xlo, f.center().y},
                         {f.xhi, f.center().y}, f.height());
    }
    layout::write_pld_file(filled, args.get("out", ""));
    std::cout << "wrote " << args.get("out", "") << "\n";
  }
  if (args.flag("gds")) {
    layout::write_gds_file(l, mr.placement.features, args.get("gds", ""));
    std::cout << "wrote " << args.get("gds", "") << "\n";
  }
  const bool degraded = report_degradation(res);
  flight_dump_after(args, res);
  return (degraded && args.flag("strict")) ? kExitDegraded : kExitOk;
}

int cmd_check(const Args& args) {
  // Verify a filled .pld: fill nets are recognized by the "FILL" name
  // prefix written by `pilfill fill --out`; everything else, blockages
  // included, is the design the fill must respect.
  if (args.positional.empty()) throw Error("check: layout path required");
  const layout::Layout filled = load_layout(args.positional[0], args);
  const pilfill::FlowConfig config = flow_from_args(args);

  layout::Layout design(filled.die());
  for (std::size_t i = 0; i < filled.num_layers(); ++i)
    design.add_layer(filled.layer(static_cast<layout::LayerId>(i)));
  for (const layout::Blockage& b : filled.blockages())
    design.add_blockage(b.layer, b.rect, b.is_metal);
  std::vector<geom::Rect> features;
  for (std::size_t i = 0; i < filled.num_nets(); ++i) {
    const layout::Net& net = filled.net(static_cast<layout::NetId>(i));
    const bool is_fill = net.name.rfind("FILL", 0) == 0;
    layout::NetId nid = layout::kInvalidNet;
    if (!is_fill) {
      layout::Net copy;
      copy.name = net.name;
      copy.source = net.source;
      copy.driver_res_ohm = net.driver_res_ohm;
      copy.sinks = net.sinks;
      nid = design.add_net(std::move(copy));
    }
    for (const layout::SegmentId sid : net.segments) {
      const layout::WireSegment& seg = filled.segment(sid);
      if (is_fill)
        features.push_back(seg.rect());
      else
        design.add_segment(nid, seg.layer, seg.a, seg.b, seg.width_um);
    }
  }

  fill::CheckOptions options;
  options.layer = config.layer;
  options.max_window_density =
      args.num("max-density", options.max_window_density);
  const grid::Dissection dis(filled.die(), config.window_um, config.r);
  const fill::CheckReport report =
      fill::check_fill(design, features, options, &dis);

  std::cout << "checked " << report.features_checked << " fill features: "
            << (report.clean() ? "CLEAN" : "VIOLATIONS FOUND") << "\n";
  for (const auto& v : report.violations)
    std::cout << "  " << v.describe() << "\n";
  // Violations are a completed-but-not-clean outcome, not a runtime error.
  return report.clean() ? kExitOk : kExitDegraded;
}

int cmd_score(const Args& args) {
  // Score an EXTERNALLY produced fill placement (e.g. from a commercial
  // tool): fill rects come from a GDSII stream, the layout from .pld/.def,
  // and both the exact delay evaluator and the legality checker run on it.
  if (args.positional.size() < 2)
    throw Error("score: usage: score <layout> <fill.gds> [--fill-layer N]");
  const layout::Layout l = load_layout(args.positional[0], args);
  const int fill_layer = args.num("fill-layer", 100);

  const layout::GdsContents gds = layout::read_gds_file(args.positional[1]);
  std::vector<geom::Rect> features;
  for (const auto& r : gds.rects)
    if (r.layer == fill_layer) features.push_back(r.rect);
  std::cout << "read " << features.size() << " fill rects (GDS layer "
            << fill_layer << ") from " << args.positional[1] << "\n";

  const pilfill::FillSession session = prep_only_session(l, args);
  const pilfill::FlowConfig& config = session.config();
  const pilfill::DelayImpact impact =
      session.evaluator().evaluate_rects(features);
  std::cout << "delay impact : +" << impact.delay_ps << " ps (weighted +"
            << impact.weighted_delay_ps << " ps, exact sink +"
            << impact.exact_sink_delay_ps << " ps)\n"
            << "mapped       : " << impact.features - impact.unmapped << "/"
            << impact.features
            << " features on the shared site grid\n";

  fill::CheckOptions check;
  check.rules = config.rules;
  check.layer = config.layer;
  check.max_window_density =
      args.num("max-density", check.max_window_density);
  const fill::CheckReport report =
      fill::check_fill(l, features, check, &session.dissection());
  std::cout << "legality     : "
            << (report.clean() ? "CLEAN" : "VIOLATIONS FOUND") << "\n";
  for (const auto& v : report.violations) std::cout << "  " << v.describe() << "\n";
  return report.clean() ? kExitOk : kExitDegraded;
}

int cmd_table(const Args& args) {
  if (args.positional.empty()) throw Error("table: layout path required");
  const layout::Layout l = load_layout(args.positional[0], args);
  pilfill::FlowConfig config = flow_from_args(args);
  ObsScope obs_scope(args);

  Table table({"method", "tau (ps)", "wtau (ps)", "cpu (s)"});
  const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
      l, config,
      {pilfill::Method::kNormal, pilfill::Method::kIlp1,
       pilfill::Method::kIlp2, pilfill::Method::kGreedy});
  for (const auto& mr : res.methods)
    table.add_row({to_string(mr.method), format_double(mr.impact.delay_ps, 4),
                   format_double(mr.impact.weighted_delay_ps, 4),
                   format_double(mr.solve_seconds, 4)});
  table.print(std::cout);
  obs_scope.finish(config, res, args.positional[0]);
  const bool degraded = report_degradation(res);
  flight_dump_after(args, res);
  return (degraded && args.flag("strict")) ? kExitDegraded : kExitOk;
}

int usage() {
  std::cerr <<
      "usage: pilfill <command> [options]\n"
      "  gen <out.pld>      [--die D] [--nets N] [--seed S] [--two-layer]\n"
      "  analyze <layout>   [--window W] [--r R] [--layer L] [--mode I|II|III]\n"
      "  fill <layout>      [--window W] [--r R] [--layer L] [--method M]\n"
      "                     [--weighted] [--mode I|II|III] [--threads N]\n"
      "                     [--out filled.pld] [--svg out.svg] [--gds out.gds]\n"
      "                     [--allowance-ps X] (budgeted) | --method anneal\n"
      "                     [--lef tech.lef] [--edit-script FILE]\n"
      "  (edit script ops: add <net> <x1> <y1> <x2> <y2> <w> | remove <sid>\n"
      "   | move <sid> <dx> <dy> | solve; '#' starts a comment; not with\n"
      "   --method anneal or --allowance-ps)\n"
      "  table <layout>     [--window W] [--r R] [--weighted]\n"
      "  check <filled.pld> [--max-density D] [--window W] [--r R]\n"
      "  score <layout> <fill.gds> [--fill-layer N] [--max-density D]\n"
      "observability (fill/table):\n"
      "  --metrics-json <path>   write a pil.run_report.v3 JSON report\n"
      "  --metrics-openmetrics <path>  write metrics in OpenMetrics text format\n"
      "  --trace-json <path>     write a Chrome/Perfetto trace of the run\n"
      "  --flight-dump <path>    always write a pil.flight.v1 postmortem dump\n"
      "                          (failures/deadlines auto-dump pil.flight.json;\n"
      "                          fatal signals dump here too; see pilstat)\n"
      "  --no-journal            disarm the always-on event journal\n"
      "  --log-level <level>     debug|info|warn|error|off (any command)\n"
      "robustness (fill/table; see docs/ROBUSTNESS.md):\n"
      "  --tile-deadline <s>     wall-clock budget per tile solve\n"
      "  --flow-deadline <s>     wall-clock budget for the whole solve\n"
      "  --no-degrade            leave failed tiles empty (no fallback)\n"
      "  --fail-fast             abort the run at the first tile failure\n"
      "  --strict                exit 3 when any tile was served degraded\n"
      "  --fault <spec>          arm fault injection (site:action:prob[:ms])\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage, 3 degraded/violations\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    util::arm_faults_from_env();  // PIL_FAULT / PIL_FAULT_SEED
    const Args args = util::parse_cli(argc, argv, 2, kFlags, kValueOptions);
    if (args.flag("no-journal")) obs::set_journal_armed(false);
    obs::journal_set_thread_name("main");
    obs::set_trace_process_name("pilfill");
    g_flight_path = args.get("flight-dump", "");
    install_fatal_signal_handlers(g_flight_path);
    if (args.flag("log-level"))
      set_log_level(parse_log_level(args.get("log-level", "info")));
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "fill") return cmd_fill(args);
    if (cmd == "table") return cmd_table(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "score") return cmd_score(args);
    return usage();
  } catch (const util::UsageError& e) {
    std::cerr << "pilfill: " << e.what() << "\n";
    return kExitUsage;
  } catch (const pil::Error& e) {
    std::cerr << "pilfill: " << e.what() << "\n";
    // Unplanned failure: keep the postmortem. Dump to the requested path,
    // or to pil.flight.json when a flow actually recorded something.
    std::string path = g_flight_path;
    if (path.empty() && obs::journal_armed() && obs::journal_sequence() > 0)
      path = "pil.flight.json";
    if (!path.empty()) {
      obs::FlightWriteOptions options;
      options.cause = "failure";
      options.detail = e.what();
      if (obs::write_flight_file(path, options))
        std::cerr << "pilfill: flight recorder dump in " << path << "\n";
    }
    return kExitError;
  }
}

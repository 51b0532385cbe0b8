/// \file pilstat_cli.cpp
/// The `pilstat` postmortem tool: decode, merge, filter, and diff
/// `pil.flight.v1` flight-recorder dumps produced by pilfill / the library
/// (`--flight-dump`, failure auto-dumps, fatal-signal dumps).
///
///   pilstat show <dump...>                 # header + per-kind event counts
///   pilstat tiles <dump...> [--top K] [--by slow|degraded]
///   pilstat tile <dump> <tile-id> [--flow F]   # one tile's event chain
///   pilstat cause <dump...>                # cause chains of bad tiles
///   pilstat merge <dump...> --out <path>   # interleave dumps by seq
///   pilstat diff <a> <b>                   # compare two dumps
///
/// Exit codes: 0 ok, 1 runtime error (unreadable/malformed dump), 2 usage.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "pil/pil.hpp"

namespace {

using namespace pil;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

using util::Args;

obs::FlightDump load_merged(const std::vector<std::string>& paths) {
  if (paths.empty()) throw Error("at least one dump file required");
  std::vector<obs::FlightDump> dumps;
  dumps.reserve(paths.size());
  for (const std::string& p : paths) dumps.push_back(obs::read_flight_file(p));
  if (dumps.size() == 1) return std::move(dumps.front());
  return obs::merge_flight_dumps(dumps);
}

std::string tile_status(const obs::TileChain& c) {
  if (c.failed) return "FAILED";
  if (c.degraded) return "degraded";
  return "ok";
}

/// One event as a timeline line: seq, time, thread, correlation, decoded
/// payload. The numeric a/b/c/v payload only prints when it carries
/// information the decoded names don't.
void print_event(const obs::FlightEvent& e) {
  std::cout << "  #" << e.seq << "  t+" << format_double(e.ts_us / 1e3, 3)
            << " ms  tid " << e.tid;
  if (e.flow != 0) std::cout << "  flow " << e.flow;
  if (e.tile >= 0) std::cout << "  tile " << e.tile;
  std::cout << "  " << e.kind;
  if (!e.method.empty()) std::cout << " [" << e.method << "]";
  if (!e.detail.empty()) std::cout << " (" << e.detail << ")";
  if (e.method.empty() && e.a != 0) std::cout << " a=" << e.a;
  if (e.detail.empty() && e.b != 0) std::cout << " b=" << e.b;
  if (e.c != 0) std::cout << " c=" << e.c;
  if (e.v != 0.0) std::cout << " v=" << format_double(e.v, 6);
  std::cout << "\n";
}

void print_header(const obs::FlightDump& dump) {
  std::cout << "cause   : " << dump.cause;
  if (!dump.detail.empty()) std::cout << " (" << dump.detail << ")";
  std::cout << "\nevents  : " << dump.events.size() << " ("
            << dump.dropped << " dropped to ring wraparound)\n"
            << "threads : " << dump.threads.size();
  for (const auto& t : dump.threads)
    std::cout << "  " << t.tid << "=" << t.name;
  std::cout << "\n";
}

int cmd_show(const Args& args) {
  const obs::FlightDump dump = load_merged(args.positional);
  print_header(dump);

  std::map<std::string, std::size_t> kinds;
  for (const auto& e : dump.events) ++kinds[e.kind];
  Table table({"event kind", "count"});
  for (const auto& [kind, count] : kinds)
    table.add_row({kind, std::to_string(count)});
  table.print(std::cout);

  const auto chains = obs::tile_chains(dump);
  std::size_t degraded = 0, failed = 0;
  for (const auto& c : chains) {
    degraded += c.degraded ? 1 : 0;
    failed += c.failed ? 1 : 0;
  }
  std::cout << chains.size() << " tile(s): " << degraded << " degraded, "
            << failed << " failed\n";
  return kExitOk;
}

int cmd_tiles(const Args& args) {
  const obs::FlightDump dump = load_merged(args.positional);
  std::vector<obs::TileChain> chains = obs::tile_chains(dump);
  const std::string by = args.get("by", "slow");
  const auto top = args.num<std::size_t>("top", 10);

  if (by == "slow") {
    std::stable_sort(chains.begin(), chains.end(),
                     [](const obs::TileChain& x, const obs::TileChain& y) {
                       return x.seconds > y.seconds;
                     });
  } else if (by == "degraded") {
    // Bad tiles first (failed before merely degraded), slowest within each.
    std::stable_sort(chains.begin(), chains.end(),
                     [](const obs::TileChain& x, const obs::TileChain& y) {
                       const int xr = x.failed ? 2 : x.degraded ? 1 : 0;
                       const int yr = y.failed ? 2 : y.degraded ? 1 : 0;
                       if (xr != yr) return xr > yr;
                       return x.seconds > y.seconds;
                     });
  } else {
    throw Error("--by must be slow or degraded, got '" + by + "'");
  }

  Table table({"tile", "flow", "method", "status", "cause", "time (ms)",
               "required", "placed"});
  for (std::size_t i = 0; i < chains.size() && i < top; ++i) {
    const obs::TileChain& c = chains[i];
    table.add_row({std::to_string(c.tile), std::to_string(c.flow),
                   c.method.empty() ? "-" : c.method, tile_status(c),
                   c.cause.empty() ? "-" : c.cause,
                   format_double(c.seconds * 1e3, 3),
                   c.required < 0 ? "-" : std::to_string(c.required),
                   c.placed < 0 ? "-" : std::to_string(c.placed)});
  }
  table.print(std::cout);
  if (chains.size() > top)
    std::cout << "(" << chains.size() - top << " more tile(s); raise --top)\n";
  return kExitOk;
}

int cmd_tile(const Args& args) {
  if (args.positional.size() < 2)
    throw Error("tile: usage: tile <dump> <tile-id> [--flow F]");
  const obs::FlightDump dump =
      load_merged({args.positional.begin(), args.positional.end() - 1});
  const int tile =
      static_cast<int>(parse_int(args.positional.back(), "<tile-id>"));
  const long long flow = args.num("flow", 0LL);

  bool found = false;
  for (const obs::TileChain& c : obs::tile_chains(dump)) {
    if (c.tile != tile) continue;
    if (flow != 0 && static_cast<long long>(c.flow) != flow) continue;
    found = true;
    std::cout << "tile " << c.tile << " (flow " << c.flow << ", session "
              << c.session << "): " << tile_status(c);
    if (!c.cause.empty()) std::cout << ", cause: " << c.cause;
    std::cout << ", " << format_double(c.seconds * 1e3, 3) << " ms\n";
    for (const std::size_t i : c.events) print_event(dump.events[i]);
  }
  if (!found) throw Error("tile " + std::to_string(tile) + " not in dump");
  return kExitOk;
}

int cmd_cause(const Args& args) {
  const obs::FlightDump dump = load_merged(args.positional);
  print_header(dump);
  bool any = false;
  for (const obs::TileChain& c : obs::tile_chains(dump)) {
    if (!c.degraded && !c.failed) continue;
    any = true;
    std::cout << "tile " << c.tile << " (flow " << c.flow << "): "
              << tile_status(c) << ", cause: "
              << (c.cause.empty() ? "unknown" : c.cause) << "\n";
    for (const std::size_t i : c.events) print_event(dump.events[i]);
  }
  if (!any) std::cout << "no degraded or failed tiles in dump\n";
  return kExitOk;
}

int cmd_merge(const Args& args) {
  const obs::FlightDump dump = load_merged(args.positional);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    obs::write_flight_json(std::cout, dump);
    return kExitOk;
  }
  std::ofstream os(out);
  if (!os.good()) throw Error("cannot open output file '" + out + "'");
  obs::write_flight_json(os, dump);
  std::cout << "wrote " << out << " (" << dump.events.size()
            << " events from " << args.positional.size() << " dump(s))\n";
  return kExitOk;
}

/// Per-dump aggregates for diffing; keyed views over tile_chains.
struct DiffSide {
  obs::FlightDump dump;
  std::map<std::pair<std::uint32_t, std::int32_t>, obs::TileChain> tiles;
  std::map<std::string, std::size_t> kinds;
};

DiffSide diff_side(const std::string& path) {
  DiffSide side;
  side.dump = obs::read_flight_file(path);
  for (obs::TileChain& c : obs::tile_chains(side.dump))
    side.tiles.emplace(std::make_pair(c.flow, c.tile), std::move(c));
  for (const auto& e : side.dump.events) ++side.kinds[e.kind];
  return side;
}

int cmd_diff(const Args& args) {
  if (args.positional.size() != 2)
    throw Error("diff: usage: diff <a.json> <b.json>");
  const DiffSide a = diff_side(args.positional[0]);
  const DiffSide b = diff_side(args.positional[1]);

  std::cout << "A: " << args.positional[0] << " (cause " << a.dump.cause
            << ", " << a.dump.events.size() << " events)\n"
            << "B: " << args.positional[1] << " (cause " << b.dump.cause
            << ", " << b.dump.events.size() << " events)\n";

  Table kinds({"event kind", "A", "B", "delta"});
  std::map<std::string, std::size_t> all_kinds = a.kinds;
  all_kinds.insert(b.kinds.begin(), b.kinds.end());
  for (const auto& [kind, unused] : all_kinds) {
    (void)unused;
    const long long ca = a.kinds.count(kind) ? static_cast<long long>(a.kinds.at(kind)) : 0;
    const long long cb = b.kinds.count(kind) ? static_cast<long long>(b.kinds.at(kind)) : 0;
    if (ca == cb) continue;
    kinds.add_row({kind, std::to_string(ca), std::to_string(cb),
                   std::to_string(cb - ca)});
  }
  if (kinds.num_rows() == 0)
    std::cout << "event-kind counts identical\n";
  else
    kinds.print(std::cout);

  // Tiles whose outcome changed, plus the largest per-tile slowdowns.
  Table changed({"tile", "flow", "A status", "B status", "A ms", "B ms"});
  std::vector<std::pair<double, std::string>> slowdowns;
  for (const auto& [key, ca] : a.tiles) {
    const auto it = b.tiles.find(key);
    if (it == b.tiles.end()) {
      changed.add_row({std::to_string(ca.tile), std::to_string(ca.flow),
                       tile_status(ca), "absent",
                       format_double(ca.seconds * 1e3, 3), "-"});
      continue;
    }
    const obs::TileChain& cb = it->second;
    if (tile_status(ca) != tile_status(cb))
      changed.add_row({std::to_string(ca.tile), std::to_string(ca.flow),
                       tile_status(ca), tile_status(cb),
                       format_double(ca.seconds * 1e3, 3),
                       format_double(cb.seconds * 1e3, 3)});
    const double delta = cb.seconds - ca.seconds;
    if (delta > 0)
      slowdowns.emplace_back(
          delta, "tile " + std::to_string(ca.tile) + ": +" +
                     format_double(delta * 1e3, 3) + " ms (" +
                     format_double(ca.seconds * 1e3, 3) + " -> " +
                     format_double(cb.seconds * 1e3, 3) + ")");
  }
  for (const auto& [key, cb] : b.tiles)
    if (!a.tiles.count(key))
      changed.add_row({std::to_string(cb.tile), std::to_string(cb.flow),
                       "absent", tile_status(cb), "-",
                       format_double(cb.seconds * 1e3, 3)});
  if (changed.num_rows() == 0)
    std::cout << "tile outcomes identical ("
              << a.tiles.size() << " tile(s))\n";
  else
    changed.print(std::cout);

  std::sort(slowdowns.begin(), slowdowns.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  const auto top = args.num<std::size_t>("top", 5);
  for (std::size_t i = 0; i < slowdowns.size() && i < top; ++i)
    std::cout << "slower in B: " << slowdowns[i].second << "\n";
  return kExitOk;
}

int usage() {
  std::cerr <<
      "usage: pilstat <command> [options]\n"
      "  show <dump...>                  dump header + per-kind event counts\n"
      "  tiles <dump...> [--top K] [--by slow|degraded]\n"
      "                                  top-K tile table with cause labels\n"
      "  tile <dump...> <tile-id> [--flow F]\n"
      "                                  one tile's full event chain (by seq)\n"
      "  cause <dump...>                 cause chains of degraded/failed tiles\n"
      "  merge <dump...> [--out <path>]  interleave dumps by sequence number\n"
      "  diff <a.json> <b.json> [--top K]\n"
      "                                  compare event counts + tile outcomes\n"
      "multiple dumps are merged by sequence number before analysis.\n"
      "dumps come from `pilfill ... --flight-dump <path>` or the automatic\n"
      "pil.flight.json written on failures, deadlines, and fatal signals.\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args =
        util::parse_cli(argc, argv, 2, {}, {"by", "flow", "out", "top"});
    if (cmd == "show") return cmd_show(args);
    if (cmd == "tiles") return cmd_tiles(args);
    if (cmd == "tile") return cmd_tile(args);
    if (cmd == "cause") return cmd_cause(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "diff") return cmd_diff(args);
    return usage();
  } catch (const util::UsageError& e) {
    std::cerr << "pilstat: " << e.what() << "\n";
    return kExitUsage;
  } catch (const pil::Error& e) {
    std::cerr << "pilstat: " << e.what() << "\n";
    return kExitError;
  }
}

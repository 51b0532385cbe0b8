/// \file piltop_cli.cpp
/// `piltop`: a top-like live view of a running `pilserve`, fed by the
/// daemon's stats endpoint (`--http` / `--http-socket` on pilserve). Polls
/// /slo and renders rolling request-rate, latency-percentile, shed-rate,
/// and queue windows; also doubles as a plain scrape client via --get.
///
///   piltop (--port N | --socket PATH) [--interval S] [--once] [--raw]
///   piltop (--port N | --socket PATH) --get /metrics
///
/// --once prints a single frame and exits (scripts, smokes); --raw dumps
/// the pil.slo.v1 JSON instead of the rendered view; --get PATH fetches
/// any endpoint route verbatim (/healthz, /metrics, /slo).
///
/// Exit codes: 0 ok, 1 endpoint unreachable / bad response, 2 usage error.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "pil/pil.hpp"

namespace {

using namespace pil;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

int usage() {
  std::cerr
      << "usage: piltop (--port N | --socket PATH) [--interval S] [--once]\n"
         "              [--raw] [--get PATH]\n"
         "Point it at pilserve's stats endpoint (--http / --http-socket).\n"
         "--once prints one frame; --raw dumps pil.slo.v1 JSON; --get PATH\n"
         "fetches any route (/healthz, /metrics, /slo) verbatim.\n";
  return kExitUsage;
}

double num_at(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->num_v : 0.0;
}

void render(const obs::JsonValue& doc) {
  std::printf("pilserve  up %.0fs  queue %lld  sessions %lld  workers %lld\n",
              num_at(doc, "uptime_seconds"),
              static_cast<long long>(num_at(doc, "queue_depth")),
              static_cast<long long>(num_at(doc, "sessions_open")),
              static_cast<long long>(num_at(doc, "workers")));
  std::printf(
      "requests %lld  executed %lld  shed %lld  rejected %lld  errors %lld\n",
      static_cast<long long>(num_at(doc, "requests_total")),
      static_cast<long long>(num_at(doc, "executed_total")),
      static_cast<long long>(num_at(doc, "shed_total")),
      static_cast<long long>(num_at(doc, "rejected_total")),
      static_cast<long long>(num_at(doc, "errors_total")));
  std::printf("\n%8s %8s %9s %9s %9s %7s %7s %6s\n", "window", "req/s",
              "p50(ms)", "p90(ms)", "p99(ms)", "shed%", "err%", "qpeak");
  const obs::JsonValue* windows = doc.find("windows");
  if (windows == nullptr || !windows->is_array()) return;
  for (const obs::JsonValue& w : windows->items) {
    std::printf("%7llds %8.2f %9.2f %9.2f %9.2f %6.1f%% %6.1f%% %6lld\n",
                static_cast<long long>(num_at(w, "window_seconds")),
                num_at(w, "rate_per_second"),
                num_at(w, "latency_p50_seconds") * 1e3,
                num_at(w, "latency_p90_seconds") * 1e3,
                num_at(w, "latency_p99_seconds") * 1e3,
                num_at(w, "shed_rate") * 100.0,
                num_at(w, "error_rate") * 100.0,
                static_cast<long long>(num_at(w, "queue_depth_peak")));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args =
        util::parse_cli(argc, argv, 1, {"once", "raw", "help"},
                        {"get", "interval", "port", "socket"});
    if (!args.positional.empty())
      throw util::UsageError("unexpected argument: " + args.positional[0]);
    if (args.flag("help")) return usage();
    if (!args.flag("port") && !args.flag("socket"))
      throw util::UsageError("need --port N or --socket PATH");

    const int port = args.num("port", -1);
    const std::string socket = args.get("socket", "");
    const double interval = args.num("interval", 2.0);
    PIL_REQUIRE(interval > 0, "--interval must be positive");

    if (args.flag("get")) {
      int status = 0;
      const std::string body =
          service::http_get(args.get("get", ""), port, socket, &status);
      std::cout << body;
      return status == 200 ? kExitOk : kExitError;
    }

    const bool once = args.flag("once");
    for (;;) {
      int status = 0;
      const std::string body =
          service::http_get("/slo", port, socket, &status);
      PIL_REQUIRE(status == 200, "/slo returned status " +
                                     std::to_string(status));
      if (args.flag("raw")) {
        std::cout << body;
        if (body.empty() || body.back() != '\n') std::cout << "\n";
      } else {
        if (!once) std::printf("\x1b[H\x1b[2J");  // top-like redraw
        render(obs::parse_json(body));
      }
      std::fflush(stdout);
      if (once) return kExitOk;
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  } catch (const util::UsageError& e) {
    std::cerr << "piltop: " << e.what() << "\n";
    return usage();
  } catch (const Error& e) {
    std::cerr << "piltop: " << e.what() << "\n";
    return kExitError;
  }
}

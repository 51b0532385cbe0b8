/// \file pilserve_cli.cpp
/// The `pilserve` daemon: fill synthesis as a service. Owns a pool of warm
/// FillSessions behind the versioned pil.request.v1 protocol (length-
/// prefixed JSON frames over a unix socket and/or loopback TCP), with a
/// bounded request queue and load shedding on the degradation ladder.
/// Drive it with `pilreq` (see docs/SERVICE.md).
///
///   pilserve [--socket PATH] [--tcp PORT] [--workers N] [--queue N]
///            [--degrade-depth N] [--reject-when-full] [--max-sessions N]
///            [--default-deadline-ms X] [--max-frame-mb N]
///            [--no-layout-path] [--metrics] [--log-level LEVEL]
///            [--http PORT] [--http-socket PATH] [--access-log PATH]
///            [--access-log-max-mb N] [--flight-dump PATH]
///            [--read-timeout-ms X] [--dedup-window N]
///            [--watchdog-grace-ms X]
///
/// PIL_FAULT / PIL_FAULT_SEED arm deterministic fault injection,
/// including the service-plane sites (accept_drop, frame_truncate,
/// frame_delay, conn_reset, worker_throw) used by scripts/chaos_soak.sh.
///
/// Prints one "listening ..." line per bound endpoint (with the resolved
/// port for --tcp 0 / --http 0), then serves until a client sends a
/// shutdown request or the process receives SIGINT/SIGTERM. With
/// --flight-dump, a pil.flight.v1 postmortem of the run's journal is
/// written there after the server stops. Exit codes follow the repo
/// taxonomy: 0 clean shutdown, 1 runtime error, 2 usage error.

#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "pil/pil.hpp"

namespace {

using namespace pil;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

int usage() {
  std::cerr
      << "usage: pilserve [--socket PATH] [--tcp PORT] [--workers N]\n"
         "                [--queue N] [--degrade-depth N] "
         "[--reject-when-full]\n"
         "                [--max-sessions N] [--default-deadline-ms X]\n"
         "                [--max-frame-mb N] [--no-layout-path] [--metrics]\n"
         "                [--log-level debug|info|warn|error|off]\n"
         "                [--http PORT] [--http-socket PATH]\n"
         "                [--access-log PATH] [--access-log-max-mb N]\n"
         "                [--flight-dump PATH] [--read-timeout-ms X]\n"
         "                [--dedup-window N] [--watchdog-grace-ms X]\n"
         "At least one of --socket / --tcp is required; --tcp 0 picks an\n"
         "ephemeral port (printed on the 'listening' line). --http serves\n"
         "/healthz, /metrics, and /slo on loopback; --access-log writes\n"
         "one pil.access.v1 JSON line per request.\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args = util::parse_cli(
        argc, argv, 1,
        {"reject-when-full", "no-layout-path", "metrics", "help"},
        {"access-log", "access-log-max-mb", "dedup-window",
         "default-deadline-ms", "degrade-depth", "flight-dump", "http",
         "http-socket", "log-level", "max-frame-mb", "max-sessions", "queue",
         "read-timeout-ms", "socket", "tcp", "watchdog-grace-ms", "workers"});
    if (!args.positional.empty())
      throw util::UsageError("unexpected argument: " + args.positional[0]);
    if (args.flag("help")) return usage();

    util::arm_faults_from_env();  // PIL_FAULT / PIL_FAULT_SEED
    if (args.flag("log-level"))
      set_log_level(parse_log_level(args.get("log-level", "")));
    if (args.flag("metrics")) obs::set_metrics_enabled(true);

    service::ServerConfig config;
    config.unix_socket = args.get("socket", config.unix_socket);
    config.tcp_port = args.num("tcp", config.tcp_port);
    if (config.unix_socket.empty() && config.tcp_port < 0) {
      std::cerr << "pilserve: need --socket PATH and/or --tcp PORT\n";
      return usage();
    }
    config.workers = args.num("workers", config.workers);
    config.queue_capacity = args.num("queue", config.queue_capacity);
    config.degrade_queue_depth =
        args.num("degrade-depth", config.degrade_queue_depth);
    config.max_sessions = args.num("max-sessions", config.max_sessions);
    if (args.flag("default-deadline-ms"))
      config.default_deadline_seconds =
          args.num("default-deadline-ms", 0.0) / 1000.0;
    if (args.flag("max-frame-mb"))
      config.max_frame_bytes = args.num<std::size_t>("max-frame-mb", 0) << 20;
    config.reject_when_full = args.flag("reject-when-full");
    config.allow_layout_path = !args.flag("no-layout-path");
    config.http_port = args.num("http", config.http_port);
    config.http_socket = args.get("http-socket", config.http_socket);
    config.access_log = args.get("access-log", config.access_log);
    if (args.flag("access-log-max-mb"))
      config.access_log_max_bytes =
          args.num<std::size_t>("access-log-max-mb", 0) << 20;
    if (args.flag("read-timeout-ms"))
      config.read_timeout_seconds = args.num("read-timeout-ms", 0.0) / 1000.0;
    config.dedup_window = args.num("dedup-window", config.dedup_window);
    if (args.flag("watchdog-grace-ms"))
      config.watchdog_grace_seconds =
          args.num("watchdog-grace-ms", 0.0) / 1000.0;
    const std::string flight_dump = args.get("flight-dump", "");

    service::Server server(config);

    // Route SIGINT/SIGTERM through a dedicated sigwait thread: a signal
    // then behaves exactly like a client shutdown request, and the main
    // thread performs the one orderly stop(). (A raw handler could not
    // safely touch the server's mutexes.)
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
    std::thread([&server, sigs] {
      int sig = 0;
      sigwait(&sigs, &sig);
      server.request_shutdown();
    }).detach();

    server.start();
    if (!config.unix_socket.empty())
      std::cout << "listening unix " << config.unix_socket << "\n";
    if (config.tcp_port >= 0)
      std::cout << "listening tcp 127.0.0.1:" << server.tcp_port() << "\n";
    if (!config.http_socket.empty())
      std::cout << "listening http unix " << config.http_socket << "\n";
    if (config.http_port >= 0)
      std::cout << "listening http 127.0.0.1:" << server.http_port() << "\n";
    std::cout.flush();

    server.wait_for_shutdown();
    server.stop();
    if (!flight_dump.empty()) {
      obs::FlightWriteOptions fo;
      fo.cause = "requested";
      fo.detail = "pilserve shutdown dump";
      if (!obs::write_flight_file(flight_dump, fo))
        std::cerr << "pilserve: cannot write flight dump " << flight_dump
                  << "\n";
    }
    const service::ServerStats stats = server.stats();
    std::cout << "served " << stats.executed << " requests ("
              << stats.shed << " shed, " << stats.errors << " errors), "
              << stats.sessions_opened << " sessions\n";
    return kExitOk;
  } catch (const util::UsageError& e) {
    std::cerr << "pilserve: " << e.what() << "\n";
    return usage();
  } catch (const Error& e) {
    std::cerr << "pilserve: " << e.what() << "\n";
    return kExitError;
  }
}

/// \file pilreq_cli.cpp
/// The `pilreq` client: one pil.request.v1 request per invocation against a
/// running `pilserve`, raw response JSON on stdout. The scriptable half of
/// the service smoke tests and of docs/SERVICE.md's quick start.
///
///   pilreq open     (--socket P | --port N) (--pld FILE | --gen | --path F)
///                   [--die D] [--nets N] [--gen-seed S] [--macros M]
///                   [--window W] [--r R] [--layer L] [--seed S]
///                   [--threads N] [--key KEY]
///   pilreq edit     (--socket P | --port N) --session ID
///                   (--add "net,x0,y0,x1,y1,w" | --remove SEG
///                    | --move "seg,dx,dy")
///   pilreq solve    (--socket P | --port N) --session ID --methods m1,m2
///                   [--deadline-ms X] [--tile-deadline-ms X] [--no-degrade]
///                   [--placement] [--strict]
///   pilreq stats    (--socket P | --port N)
///   pilreq shutdown (--socket P | --port N)
///
/// Every verb also takes --trace-id HEX (up to 16 hex chars) to pin the
/// request's trace id; without it the server assigns one. The response's
/// trace id and per-stage timing breakdown are echoed to stderr, so stdout
/// stays raw response JSON for scripts.
///
/// Retries: --retries N arms reconnect + bounded exponential backoff
/// (--retry-backoff-ms, jittered) for retry-safe requests -- see
/// service::Client::call_with_retry. An edit gets a generated request_id
/// (pin one with --request-id HEX), so a retried edit is acknowledged
/// from the server's dedup window, never applied twice.
///
/// Exit codes: 0 request ok, 1 request failed (response ok=false or
/// transport error), 2 usage error, 3 response flagged degraded/shed under
/// --strict (same taxonomy as pilfill), 4 could not connect,
/// 5 connection dropped mid-request, 6 retries exhausted.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pil/pil.hpp"

namespace {

using namespace pil;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitDegraded = 3;
constexpr int kExitConnect = 4;
constexpr int kExitDropped = 5;
constexpr int kExitExhausted = 6;

int usage() {
  std::cerr
      << "usage: pilreq <open|edit|solve|stats|shutdown> "
         "(--socket PATH | --port N) [options]\n"
         "  open:  --pld FILE | --gen [--die D --nets N --gen-seed S "
         "--macros M] | --path SERVER_FILE\n"
         "         [--window W] [--r R] [--layer L] [--seed S] [--threads N] "
         "[--key KEY]\n"
         "  edit:  --session ID --add \"net,x0,y0,x1,y1,w\" | --remove SEG | "
         "--move \"seg,dx,dy\"\n"
         "  solve: --session ID --methods normal,ilp1,ilp2,greedy,convex\n"
         "         [--deadline-ms X] [--tile-deadline-ms X] [--no-degrade] "
         "[--placement] [--strict]\n"
         "  stats | shutdown\n"
         "  any:   --trace-id HEX (pin the request trace; server assigns "
         "one otherwise)\n"
         "         --retries N --retry-backoff-ms X (reconnect + jittered "
         "backoff for retry-safe ops)\n"
         "         --request-id HEX (pin the edit idempotency key; "
         "generated otherwise when retrying)\n"
         "Response JSON goes to stdout (trace + stage breakdown to "
         "stderr); exit 3 = degraded under --strict,\n"
         "4 = cannot connect, 5 = dropped mid-request, 6 = retries "
         "exhausted.\n";
  return kExitUsage;
}

std::uint64_t parse_hex_arg(const std::string& hex, const char* what) {
  std::uint64_t v = 0;
  PIL_REQUIRE(!hex.empty() && hex.size() <= 16,
              std::string(what) + ": expected up to 16 hex chars");
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw Error(std::string(what) + ": expected up to 16 hex chars");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::vector<double> parse_csv_doubles(const std::string& s,
                                      std::size_t expect, const char* what) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(parse_double(item, what));
  PIL_REQUIRE(out.size() == expect,
              std::string(what) + ": expected " + std::to_string(expect) +
                  " comma-separated values");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string op_name = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      std::cerr << "pilreq: unexpected argument: " << a << "\n";
      return usage();
    }
    const std::string name = a.substr(2);
    if (name == "gen" || name == "no-degrade" || name == "placement" ||
        name == "strict" || name == "help") {
      opts[name] = "1";
    } else {
      if (i + 1 >= argc) {
        std::cerr << "pilreq: option --" << name << " needs a value\n";
        return usage();
      }
      opts[name] = argv[++i];
    }
  }
  if (op_name == "help" || opts.count("help")) return usage();

  try {
    service::Request req;
    // CLI verbs are short; the wire uses the full op names.
    req.op = op_name == "open"   ? service::Op::kOpenSession
             : op_name == "edit" ? service::Op::kApplyEdit
                                 : service::op_from_name(op_name);
    if (opts.count("id"))
      req.id = static_cast<std::uint64_t>(parse_int(opts.at("id"), "--id"));
    // Accept exactly what the wire accepts: up to 16 hex chars.
    if (opts.count("trace-id"))
      req.trace_id = parse_hex_arg(opts.at("trace-id"), "--trace-id");
    if (opts.count("request-id"))
      req.request_id = parse_hex_arg(opts.at("request-id"), "--request-id");

    switch (req.op) {
      case service::Op::kOpenSession: {
        if (opts.count("pld")) {
          std::ifstream in(opts.at("pld"));
          PIL_REQUIRE(in.good(), "cannot open " + opts.at("pld"));
          std::ostringstream text;
          text << in.rdbuf();
          req.layout_pld = text.str();
        } else if (opts.count("path")) {
          req.layout_path = opts.at("path");
        } else if (opts.count("gen")) {
          service::GenSpec gen;
          if (opts.count("die"))
            gen.die_um = parse_double(opts.at("die"), "--die");
          if (opts.count("nets"))
            gen.num_nets =
                static_cast<int>(parse_int(opts.at("nets"), "--nets"));
          if (opts.count("gen-seed"))
            gen.seed = static_cast<std::uint64_t>(
                parse_int(opts.at("gen-seed"), "--gen-seed"));
          if (opts.count("macros"))
            gen.num_macros =
                static_cast<int>(parse_int(opts.at("macros"), "--macros"));
          req.gen = gen;
        } else {
          std::cerr << "pilreq open: need --pld, --gen, or --path\n";
          return usage();
        }
        if (opts.count("window"))
          req.config.window_um = parse_double(opts.at("window"), "--window");
        if (opts.count("r"))
          req.config.r = static_cast<int>(parse_int(opts.at("r"), "--r"));
        if (opts.count("layer"))
          req.config.layer = static_cast<layout::LayerId>(
              parse_int(opts.at("layer"), "--layer"));
        if (opts.count("seed"))
          req.config.seed = static_cast<std::uint64_t>(
              parse_int(opts.at("seed"), "--seed"));
        if (opts.count("threads"))
          req.config.threads =
              static_cast<int>(parse_int(opts.at("threads"), "--threads"));
        req.session_key = opts.count("key") ? opts.at("key") : "";
        break;
      }
      case service::Op::kApplyEdit: {
        PIL_REQUIRE(opts.count("session") > 0, "edit needs --session");
        req.session = opts.at("session");
        if (opts.count("add")) {
          const auto v = parse_csv_doubles(opts.at("add"), 6, "--add");
          req.edit = pilfill::WireEdit::add_segment(
              static_cast<layout::NetId>(v[0]), {v[1], v[2]}, {v[3], v[4]},
              v[5]);
        } else if (opts.count("remove")) {
          req.edit = pilfill::WireEdit::remove_segment(
              static_cast<layout::SegmentId>(
                  parse_int(opts.at("remove"), "--remove")));
        } else if (opts.count("move")) {
          const auto v = parse_csv_doubles(opts.at("move"), 3, "--move");
          req.edit = pilfill::WireEdit::move_segment(
              static_cast<layout::SegmentId>(v[0]), v[1], v[2]);
        } else {
          std::cerr << "pilreq edit: need --add, --remove, or --move\n";
          return usage();
        }
        break;
      }
      case service::Op::kSolve: {
        PIL_REQUIRE(opts.count("session") > 0, "solve needs --session");
        req.session = opts.at("session");
        std::stringstream ss(
            opts.count("methods") ? opts.at("methods") : "ilp2");
        std::string item;
        while (std::getline(ss, item, ','))
          req.methods.push_back(service::method_from_wire(item));
        if (opts.count("deadline-ms"))
          req.deadline_ms =
              parse_double(opts.at("deadline-ms"), "--deadline-ms");
        if (opts.count("tile-deadline-ms"))
          req.tile_deadline_ms = parse_double(opts.at("tile-deadline-ms"),
                                              "--tile-deadline-ms");
        req.no_degrade = opts.count("no-degrade") > 0;
        req.include_placement = opts.count("placement") > 0;
        break;
      }
      case service::Op::kStats:
      case service::Op::kShutdown:
        break;
    }

    service::Client client =
        opts.count("socket")
            ? service::Client::connect_unix(opts.at("socket"))
            : (opts.count("port")
                   ? service::Client::connect_tcp(static_cast<int>(
                         parse_int(opts.at("port"), "--port")))
                   : throw Error("pilreq: need --socket PATH or --port N"));

    service::RetryPolicy retry;
    if (opts.count("retries"))
      retry.retries =
          static_cast<int>(parse_int(opts.at("retries"), "--retries"));
    if (opts.count("retry-backoff-ms"))
      retry.backoff_ms =
          parse_double(opts.at("retry-backoff-ms"), "--retry-backoff-ms");

    std::string raw;
    service::Response resp;
    if (retry.retries > 0) {
      resp = client.call_with_retry(req, retry, &raw);
    } else {
      raw = client.call_raw(service::encode_request(req));
      resp = service::decode_response(raw);
    }
    std::cout << raw << "\n";
    if (resp.trace_id != 0) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(resp.trace_id));
      std::cerr << "trace " << hex;
      if (resp.stages.has_value())
        std::cerr << "  queue " << resp.stages->queue_ms << "ms, admission "
                  << resp.stages->admission_ms << "ms, session "
                  << resp.stages->session_ms << "ms, solve "
                  << resp.stages->solve_ms << "ms, write "
                  << resp.stages->write_ms << "ms";
      std::cerr << "\n";
    }
    if (!resp.ok) {
      std::cerr << "pilreq: " << resp.error << "\n";
      return kExitError;
    }
    if (opts.count("strict") && (resp.degraded || resp.shed))
      return kExitDegraded;
    return kExitOk;
  } catch (const service::TransportError& e) {
    switch (e.kind()) {
      case service::TransportError::Kind::kConnect:
        std::cerr << "pilreq: cannot connect: " << e.what() << "\n";
        return kExitConnect;
      case service::TransportError::Kind::kDropped:
        std::cerr << "pilreq: connection dropped: " << e.what() << "\n";
        return kExitDropped;
      case service::TransportError::Kind::kExhausted:
        std::cerr << "pilreq: retries exhausted: " << e.what() << "\n";
        return kExitExhausted;
    }
    return kExitError;
  } catch (const Error& e) {
    std::cerr << "pilreq: " << e.what() << "\n";
    return kExitError;
  }
}

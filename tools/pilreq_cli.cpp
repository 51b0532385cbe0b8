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

#include <fstream>
#include <iostream>
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
  try {
    const util::Args args = util::parse_cli(
        argc, argv, 2, {"gen", "no-degrade", "placement", "strict", "help"},
        {"add", "deadline-ms", "die", "gen-seed", "id", "key", "layer",
         "macros", "methods", "move", "nets", "path", "pld", "port", "r",
         "remove", "request-id", "retries", "retry-backoff-ms", "seed",
         "session", "socket", "threads", "tile-deadline-ms", "trace-id",
         "window"});
    if (!args.positional.empty())
      throw util::UsageError("unexpected argument: " + args.positional[0]);
    if (op_name == "help" || args.flag("help")) return usage();

    service::Request req;
    // CLI verbs are short; the wire uses the full op names.
    req.op = op_name == "open"   ? service::Op::kOpenSession
             : op_name == "edit" ? service::Op::kApplyEdit
                                 : service::op_from_name(op_name);
    req.id = args.num("id", req.id);
    // The wire's own hex parser, so both accept the same ids.
    if (args.flag("trace-id"))
      req.trace_id = parse_hex_u64(args.get("trace-id", ""), "--trace-id");
    if (args.flag("request-id"))
      req.request_id =
          parse_hex_u64(args.get("request-id", ""), "--request-id");

    switch (req.op) {
      case service::Op::kOpenSession: {
        if (args.flag("pld")) {
          std::ifstream in(args.get("pld", ""));
          PIL_REQUIRE(in.good(), "cannot open " + args.get("pld", ""));
          std::ostringstream text;
          text << in.rdbuf();
          req.layout_pld = text.str();
        } else if (args.flag("path")) {
          req.layout_path = args.get("path", "");
        } else if (args.flag("gen")) {
          service::GenSpec gen;
          gen.die_um = args.num("die", gen.die_um);
          gen.num_nets = args.num("nets", gen.num_nets);
          gen.seed = args.num("gen-seed", gen.seed);
          gen.num_macros = args.num("macros", gen.num_macros);
          req.gen = gen;
        } else {
          std::cerr << "pilreq open: need --pld, --gen, or --path\n";
          return usage();
        }
        req.config.window_um = args.num("window", req.config.window_um);
        req.config.r = args.num("r", req.config.r);
        req.config.layer = args.num("layer", req.config.layer);
        req.config.seed = args.num("seed", req.config.seed);
        req.config.threads = args.num("threads", req.config.threads);
        req.session_key = args.get("key", "");
        break;
      }
      case service::Op::kApplyEdit: {
        PIL_REQUIRE(args.flag("session"), "edit needs --session");
        req.session = args.get("session", "");
        if (args.flag("add")) {
          const auto v = parse_csv_doubles(args.get("add", ""), 6, "--add");
          req.edit = pilfill::WireEdit::add_segment(
              static_cast<layout::NetId>(v[0]), {v[1], v[2]}, {v[3], v[4]},
              v[5]);
        } else if (args.flag("remove")) {
          req.edit = pilfill::WireEdit::remove_segment(
              args.num<layout::SegmentId>("remove", 0));
        } else if (args.flag("move")) {
          const auto v = parse_csv_doubles(args.get("move", ""), 3, "--move");
          req.edit = pilfill::WireEdit::move_segment(
              static_cast<layout::SegmentId>(v[0]), v[1], v[2]);
        } else {
          std::cerr << "pilreq edit: need --add, --remove, or --move\n";
          return usage();
        }
        break;
      }
      case service::Op::kSolve: {
        PIL_REQUIRE(args.flag("session"), "solve needs --session");
        req.session = args.get("session", "");
        std::stringstream ss(args.get("methods", "ilp2"));
        std::string item;
        while (std::getline(ss, item, ','))
          req.methods.push_back(pilfill::method_from_wire(item));
        req.deadline_ms = args.num("deadline-ms", 0.0);
        req.tile_deadline_ms = args.num("tile-deadline-ms", 0.0);
        req.no_degrade = args.flag("no-degrade");
        req.include_placement = args.flag("placement");
        break;
      }
      case service::Op::kStats:
      case service::Op::kShutdown:
        break;
    }

    service::Client client =
        args.flag("socket")
            ? service::Client::connect_unix(args.get("socket", ""))
            : (args.flag("port")
                   ? service::Client::connect_tcp(args.num("port", 0))
                   : throw Error("pilreq: need --socket PATH or --port N"));

    service::RetryPolicy retry;
    retry.retries = args.num("retries", retry.retries);
    retry.backoff_ms = args.num("retry-backoff-ms", retry.backoff_ms);

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
      std::cerr << "trace " << hex_u64(resp.trace_id);
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
    if (args.flag("strict") && (resp.degraded || resp.shed))
      return kExitDegraded;
    return kExitOk;
  } catch (const util::UsageError& e) {
    std::cerr << "pilreq: " << e.what() << "\n";
    return usage();
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

/// \file test_service.cpp
/// The fill service: wire protocol round-trips (including malformed,
/// oversize, truncated, and wrong-schema frames), the FlowConfig
/// model/policy split, server admission control and load shedding, and the
/// headline guarantee -- solve results served over the socket are
/// bit-identical to an in-process FillSession.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "gtest/gtest.h"
#include "pil/layout/pld_io.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/obs/flight.hpp"
#include "pil/obs/journal.hpp"
#include "pil/obs/json.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/pilfill/config_codec.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/pilfill/session.hpp"
#include "pil/service/access_log.hpp"
#include "pil/service/client.hpp"
#include "pil/service/protocol.hpp"
#include "pil/service/server.hpp"
#include "pil/service/stats_http.hpp"
#include "pil/util/error.hpp"
#include "pil/util/fault.hpp"

namespace pil::service {
namespace {

layout::Layout small_layout(std::uint64_t seed = 4) {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96.0;
  cfg.num_nets = 40;
  cfg.seed = seed;
  return layout::generate_synthetic_layout(cfg);
}

pilfill::FlowConfig small_config() {
  pilfill::FlowConfig cfg;
  cfg.window_um = 32.0;
  cfg.r = 2;
  return cfg;
}

std::string scratch_socket(const char* tag) {
  // Unix socket paths are length-limited; /tmp keeps them short even when
  // the build tree path is deep.
  return "/tmp/pil_service_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------- framing --

TEST(ServiceFraming, RoundTripsPayloadsThroughAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], "hello");
  write_frame(fds[1], "");
  // The 100 kB frame exceeds the pipe's buffer, so it must be drained
  // concurrently -- which also exercises write_all's partial-write loop.
  const std::string big(100000, 'x');
  std::thread writer([&] {
    write_frame(fds[1], big);
    ::close(fds[1]);
  });
  std::string got;
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kOk);
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kOk);
  EXPECT_EQ(got, "");
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kOk);
  EXPECT_EQ(got, big);
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kClosed);
  writer.join();
  ::close(fds[0]);
}

TEST(ServiceFraming, ReportsOversizeWithoutReadingThePayload) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], "0123456789");
  std::string got;
  EXPECT_EQ(read_frame(fds[0], got, /*max_bytes=*/5),
            FrameReadStatus::kOversize);
  EXPECT_EQ(got, "10");  // announced length, for diagnostics
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceFraming, ReportsTruncationInsideHeaderAndPayload) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char partial_header[2] = {0, 0};
  ASSERT_EQ(::write(fds[1], partial_header, 2), 2);
  ::close(fds[1]);
  std::string got;
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kTruncated);
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  const char header_then_half[6] = {0, 0, 0, 4, 'a', 'b'};
  ASSERT_EQ(::write(fds[1], header_then_half, 6), 6);
  ::close(fds[1]);
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kTruncated);
  ::close(fds[0]);
}

TEST(ServiceFraming, FrameLeavesInOneSend) {
  // On a SOCK_SEQPACKET pair each send() is one record and one recv()
  // returns one record, so a recv shows exactly what one send carried. A
  // frame split over two sends lets Nagle's algorithm hold the second back
  // until the peer's delayed ACK on TCP.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
  char buf[64];
  write_frame(fds[0], "hello");
  ASSERT_EQ(::recv(fds[1], buf, sizeof(buf), 0), 9);
  EXPECT_EQ(std::string(buf, 9), std::string("\0\0\0\5hello", 9));
  // The frame_truncate chaos site announces the full length, sends half
  // the payload -- and still only one record.
  const std::string payload = "0123456789abcdef";
  write_frame_truncated(fds[0], payload, payload.size() / 2);
  ASSERT_EQ(::recv(fds[1], buf, sizeof(buf), 0), 4 + 8);
  EXPECT_EQ(std::string(buf, 12), std::string("\0\0\0\x10" "01234567", 12));
  ::close(fds[0]);
  ::close(fds[1]);
}

// --------------------------------------------------------------- protocol --

TEST(ServiceProtocol, RequestRoundTripsEveryField) {
  Request req;
  req.op = Op::kOpenSession;
  req.id = 42;
  req.layout_pld = "PLD 1\n";
  GenSpec gen;
  gen.die_um = 128.0;
  gen.num_nets = 77;
  gen.seed = 9;
  gen.num_macros = 2;
  req.gen = gen;
  req.config.window_um = 24.0;
  req.config.r = 3;
  req.config.seed = 123;
  req.config.objective = pilfill::Objective::kWeighted;
  req.config.style = cap::FillStyle::kGrounded;
  req.config.threads = 4;
  req.config.fault_spec = "tile_solve:throw:0.5";
  req.config.required_per_tile = {1, 2, 3};
  req.config.net_criticality = {0.5, 2.0};
  req.session_key = "team-a";

  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.op, Op::kOpenSession);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.layout_pld, "PLD 1\n");
  ASSERT_TRUE(back.gen.has_value());
  EXPECT_EQ(back.gen->num_nets, 77);
  EXPECT_EQ(back.gen->num_macros, 2);
  EXPECT_EQ(back.config.window_um, 24.0);
  EXPECT_EQ(back.config.r, 3);
  EXPECT_EQ(back.config.seed, 123u);
  EXPECT_EQ(back.config.objective, pilfill::Objective::kWeighted);
  EXPECT_EQ(back.config.style, cap::FillStyle::kGrounded);
  EXPECT_EQ(back.config.threads, 4);
  EXPECT_EQ(back.config.fault_spec, "tile_solve:throw:0.5");
  EXPECT_EQ(back.config.required_per_tile, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(back.config.net_criticality, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(back.session_key, "team-a");
}

TEST(ServiceProtocol, SolveRequestRoundTripsMethodsAndBudgets) {
  Request req;
  req.op = Op::kSolve;
  req.session = "s7";
  req.methods = {pilfill::Method::kIlp2, pilfill::Method::kGreedy};
  req.deadline_ms = 1500.0;
  req.tile_deadline_ms = 40.0;
  req.no_degrade = true;
  req.include_placement = true;
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.session, "s7");
  EXPECT_EQ(back.methods,
            (std::vector<pilfill::Method>{pilfill::Method::kIlp2,
                                          pilfill::Method::kGreedy}));
  EXPECT_EQ(back.deadline_ms, 1500.0);
  EXPECT_EQ(back.tile_deadline_ms, 40.0);
  EXPECT_TRUE(back.no_degrade);
  EXPECT_TRUE(back.include_placement);
}

TEST(ServiceProtocol, EditRequestRoundTripsAllKinds) {
  Request req;
  req.op = Op::kApplyEdit;
  req.session = "s1";
  req.edit = pilfill::WireEdit::add_segment(3, {1.25, 2.5}, {1.25, 7.5}, 0.4);
  Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.edit.kind, pilfill::WireEdit::Kind::kAddSegment);
  EXPECT_EQ(back.edit.net, 3);
  EXPECT_EQ(back.edit.a.x, 1.25);
  EXPECT_EQ(back.edit.b.y, 7.5);
  EXPECT_EQ(back.edit.width_um, 0.4);

  req.edit = pilfill::WireEdit::move_segment(11, -0.125, 3.0);
  back = decode_request(encode_request(req));
  EXPECT_EQ(back.edit.kind, pilfill::WireEdit::Kind::kMoveSegment);
  EXPECT_EQ(back.edit.segment, 11);
  EXPECT_EQ(back.edit.dx, -0.125);
  EXPECT_EQ(back.edit.dy, 3.0);
}

TEST(ServiceProtocol, ResponseRoundTripsBitExactDoubles) {
  Response resp;
  resp.op = Op::kSolve;
  resp.id = 7;
  resp.ok = true;
  resp.degraded = true;
  resp.session = "s3";
  MethodSummary m;
  m.requested = pilfill::Method::kIlp2;
  m.served = pilfill::Method::kGreedy;
  m.placed = 123;
  m.delay_ps = 0.1 + 0.2;  // not exactly 0.3 in binary
  m.solve_seconds = 1e-9;
  m.placement_hash = 0xdeadbeefcafe1234ull;
  m.placement = {{0.1, 0.2, 0.30000000000000004, 1e300}};
  resp.methods.push_back(m);
  const Response back = decode_response(encode_response(resp));
  ASSERT_EQ(back.methods.size(), 1u);
  EXPECT_EQ(back.methods[0].requested, pilfill::Method::kIlp2);
  EXPECT_EQ(back.methods[0].served, pilfill::Method::kGreedy);
  EXPECT_EQ(back.methods[0].delay_ps, 0.1 + 0.2);
  EXPECT_EQ(back.methods[0].solve_seconds, 1e-9);
  EXPECT_EQ(back.methods[0].placement_hash, 0xdeadbeefcafe1234ull);
  ASSERT_EQ(back.methods[0].placement.size(), 1u);
  EXPECT_EQ(back.methods[0].placement[0].xhi, 0.30000000000000004);
  EXPECT_EQ(back.methods[0].placement[0].yhi, 1e300);
  EXPECT_TRUE(back.degraded);
}

/// A rejected document's error goes back to the client: it names what was
/// wrong and never carries the server's source location.
void expect_client_facing(const std::string& error) {
  EXPECT_EQ(error.find("precondition failed"), std::string::npos) << error;
  EXPECT_EQ(error.find(".cpp:"), std::string::npos) << error;
}

/// `decode` (decode_request unless given) must reject `json`, with a
/// client-facing error naming `field`.
template <typename Decode = decltype(&decode_request)>
void expect_rejected(const std::string& json, const std::string& field,
                     Decode decode = &decode_request) {
  try {
    decode(json);
    ADD_FAILURE() << "accepted " << json;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(field + ":"), std::string::npos)
        << e.what();
    expect_client_facing(e.what());
  }
}

TEST(ServiceProtocol, RejectsWrongSchemaAndMalformedDocuments) {
  EXPECT_THROW(decode_request("{\"schema\":\"pil.request.v2\",\"op\":\"stats\"}"),
               Error);
  EXPECT_THROW(decode_request("{\"op\":\"stats\"}"), Error);  // no schema
  EXPECT_THROW(decode_request("not json at all"), Error);
  EXPECT_THROW(decode_request("[1,2,3]"), Error);
  EXPECT_THROW(decode_request(
                   "{\"schema\":\"pil.request.v1\",\"op\":\"levitate\"}"),
               Error);
  EXPECT_THROW(decode_response("{\"schema\":\"pil.request.v1\"}"), Error);
  // A member that must be an object, sent as a number.
  expect_rejected(
      "{\"schema\":\"pil.request.v1\",\"op\":\"open_session\",\"gen\":5}",
      "gen");
  expect_rejected(
      "{\"schema\":\"pil.request.v1\",\"op\":\"apply_edit\",\"edit\":5}",
      "edit");
  // Every placement coordinate must be a number, not a silent 0.
  expect_rejected(
      "{\"schema\":\"pil.response.v1\",\"op\":\"solve\",\"methods\":"
      "[{\"placement\":[[\"x\",true,null,{}]]}]}",
      "placement[]", &decode_response);
  try {
    decode_request("{\"schema\":\"pil.request.v2\",\"op\":\"stats\"}");
    ADD_FAILURE() << "accepted a pil.request.v2 document";
  } catch (const Error& e) {
    expect_client_facing(e.what());
  }
}

TEST(ServiceProtocol, IgnoresUnknownFieldsButRejectsUnknownConfigKeys) {
  // Unknown top-level fields: forward compatibility, ignored.
  const Request r = decode_request(
      "{\"schema\":\"pil.request.v1\",\"op\":\"stats\",\"future\":123}");
  EXPECT_EQ(r.op, Op::kStats);
  // Unknown config keys would silently change the problem: rejected.
  EXPECT_THROW(
      decode_request("{\"schema\":\"pil.request.v1\",\"op\":\"open_session\","
                     "\"config\":{\"windw_um\":32}}"),
      Error);
}

TEST(ServiceProtocol, IntegerFieldsRejectWhatTheWireCannotCarryExactly) {
  // Integers travel as JSON numbers, which decode as doubles: exact up to
  // 2^53 - 1, so that value round-trips while every larger seed is refused
  // on encode and rejected on decode. Unchecked, 2^53 + 1 would decode as
  // 2^53 (another layout than the client asked for), and 2^64 - 1 would
  // round to 2^64, outside u64.
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  Request req;
  req.op = Op::kOpenSession;
  req.gen = GenSpec{};
  req.gen->seed = k53 - 1;
  req.config.seed = k53 - 1;
  req.config.target.seed = k53 - 1;
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.gen->seed, k53 - 1);
  EXPECT_EQ(back.config.seed, k53 - 1);
  EXPECT_EQ(back.config.target.seed, k53 - 1);

  const std::string open =
      "{\"schema\":\"pil.request.v1\",\"op\":\"open_session\",";
  for (const std::uint64_t seed : {k53, k53 + 1, ~std::uint64_t{0}}) {
    Request bad = req;
    bad.gen->seed = seed;
    EXPECT_THROW(encode_request(bad), Error) << seed;
    bad = req;
    bad.config.seed = seed;
    EXPECT_THROW(encode_request(bad), Error) << seed;
    bad = req;
    bad.config.target.seed = seed;
    EXPECT_THROW(encode_request(bad), Error) << seed;
    const std::string digits = std::to_string(seed);
    expect_rejected(open + "\"gen\":{\"seed\":" + digits + "}}", "gen.seed");
    expect_rejected(open + "\"config\":{\"seed\":" + digits + "}}",
                    "config.seed");
    expect_rejected(open + "\"config\":{\"target_seed\":" + digits + "}}",
                    "config.target_seed");
  }
  // Non-integral or out-of-range numbers in any integer field, where an
  // unchecked cast would truncate or be undefined.
  expect_rejected(
      "{\"schema\":\"pil.request.v1\",\"op\":\"stats\",\"id\":1.5}", "id");
  expect_rejected(open + "\"gen\":{\"num_nets\":1e300}}", "gen.num_nets");
  expect_rejected(open + "\"config\":{\"r\":2.5}}", "config.r");
  expect_rejected(open + "\"config\":{\"threads\":4294967296}}",
                  "config.threads");
  expect_rejected(open + "\"config\":{\"required_per_tile\":[1,-3e9]}}",
                  "config.required_per_tile");
  expect_rejected(
      "{\"schema\":\"pil.request.v1\",\"op\":\"apply_edit\","
      "\"edit\":{\"kind\":\"remove_segment\",\"segment\":-1e19}}",
      "edit.segment");
}

TEST(ServiceProtocol, ConfigFieldsRejectWrongJsonTypes) {
  // Each config value is read through a checked accessor: a value of the
  // wrong JSON type is an error naming the field, never a silent 0, false
  // or "" that the validator then accepts.
  const std::string open =
      "{\"schema\":\"pil.request.v1\",\"op\":\"open_session\","
      "\"config\":{";
  for (const auto& [member, field] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"lower_target\":\"0.3\"", "config.lower_target"},
           {"\"fail_fast\":1", "config.fail_fast"},
           {"\"degrade_on_failure\":0", "config.degrade_on_failure"},
           {"\"net_criticality\":[\"x\",2]", "config.net_criticality"},
           {"\"net_criticality\":3", "config.net_criticality"},
           {"\"required_per_tile\":{}", "config.required_per_tile"},
           {"\"fault_spec\":5", "config.fault_spec"},
           {"\"tile_deadline_seconds\":\"1\"",
            "config.tile_deadline_seconds"},
           {"\"switch_factor\":null", "config.switch_factor"},
           {"\"window_um\":true", "config.window_um"},
           {"\"target_engine\":3", "config.target_engine"},
           {"\"target_engine\":\"monte-carlo\"", "config.target_engine"},
           {"\"solver_mode\":\"III\"", "config.solver_mode"},
           {"\"objective\":\"non-weighted\"", "config.objective"},
           {"\"style\":\"Grounded\"", "config.style"},
       })
    expect_rejected(open + member + "}}", field);
}

TEST(ServiceProtocol, MethodWireNamesRoundTrip) {
  for (pilfill::Method m :
       {pilfill::Method::kNormal, pilfill::Method::kIlp1,
        pilfill::Method::kIlp2, pilfill::Method::kGreedy,
        pilfill::Method::kConvex})
    EXPECT_EQ(pilfill::method_from_wire(pilfill::method_wire_name(m)), m);
  EXPECT_THROW(pilfill::method_from_wire("ILP-II"), Error);  // display names
                                                             // are not wire
                                                             // names
}

TEST(ServiceProtocol, FingerprintsSeparateModelFromPolicy) {
  pilfill::FlowConfig a = small_config();
  pilfill::FlowConfig b = a;
  b.threads = 8;
  b.flow_deadline_seconds = 2.0;
  // Policy differences must not split the session pool.
  EXPECT_EQ(pilfill::model_fingerprint(a.model()),
            pilfill::model_fingerprint(b.model()));
  b.window_um = 16.0;
  EXPECT_NE(pilfill::model_fingerprint(a.model()),
            pilfill::model_fingerprint(b.model()));

  // The wire's bytes are the fingerprint's definition: these values were
  // produced by the codec before it moved from pil::service to pilfill, and
  // they key the session pool, so they must never drift.
  EXPECT_EQ(pilfill::model_fingerprint(pilfill::ModelConfig{}),
            0x314c45b4b09fe509ull);
  pilfill::ModelConfig m;
  m.target_engine = pilfill::TargetEngine::kMinVarLp;
  m.solver_mode = fill::SlackMode::kII;
  m.objective = pilfill::Objective::kWeighted;
  m.style = cap::FillStyle::kGrounded;
  m.target.lower_target = 0.2;
  m.target.upper_bound = 0.3;
  m.target.seed = 99;
  m.ilp.max_nodes = 500;
  m.net_criticality = {1.0, 0.5};
  m.required_per_tile = {1, 2, 3};
  EXPECT_EQ(pilfill::model_fingerprint(m), 0x11c4880871fc7c34ull);

  const layout::Layout l1 = small_layout(4);
  const layout::Layout l2 = small_layout(5);
  EXPECT_EQ(layout_fingerprint(l1), layout_fingerprint(small_layout(4)));
  EXPECT_NE(layout_fingerprint(l1), layout_fingerprint(l2));
}

// ----------------------------------------------------- FlowConfig split ----

TEST(ConfigSplit, ValidationErrorsNameTheOffendingFieldPath) {
  pilfill::FlowConfig cfg = small_config();
  cfg.window_um = -1.0;
  try {
    cfg.validate();
    FAIL() << "expected validation error";
  } catch (const Error& e) {
    EXPECT_EQ(pilfill::extract_config_field_path(e.what()), "model.window_um");
  }
  cfg = small_config();
  cfg.threads = -2;
  try {
    cfg.validate();
    FAIL() << "expected validation error";
  } catch (const Error& e) {
    EXPECT_EQ(pilfill::extract_config_field_path(e.what()), "policy.threads");
  }
  cfg = small_config();
  cfg.fault_spec = "bogus-spec";
  try {
    cfg.validate();
    FAIL() << "expected validation error";
  } catch (const Error& e) {
    EXPECT_EQ(pilfill::extract_config_field_path(e.what()),
              "policy.fault_spec");
  }
  EXPECT_EQ(pilfill::extract_config_field_path("some unrelated error"), "");
}

TEST(ConfigSplit, ModelAndPolicySlicesAliasTheFlatFields) {
  pilfill::FlowConfig cfg;
  cfg.model().window_um = 48.0;
  cfg.policy().threads = 3;
  EXPECT_EQ(cfg.window_um, 48.0);
  EXPECT_EQ(cfg.threads, 3);
  cfg.fail_fast = true;
  EXPECT_TRUE(cfg.policy().fail_fast);
}

TEST(ConfigSplit, SessionSolveAcceptsPerCallPolicy) {
  const layout::Layout layout = small_layout();
  pilfill::FlowConfig cfg = small_config();
  pilfill::FillSession session(layout, cfg);
  const std::vector<pilfill::Method> methods = {pilfill::Method::kGreedy};
  const pilfill::FlowResult base = session.solve(methods);

  pilfill::SolvePolicy policy = cfg.policy();
  policy.threads = 2;
  const pilfill::FlowResult with_policy = session.solve(methods, policy);
  EXPECT_TRUE(pilfill::flow_results_equivalent(base, with_policy));

  pilfill::SolvePolicy bad;
  bad.threads = -1;
  EXPECT_THROW(session.solve(methods, bad), Error);
}

// ------------------------------------------------------------- end to end --

struct ServerFixture {
  explicit ServerFixture(ServerConfig cfg = {}) {
    if (cfg.unix_socket.empty() && cfg.tcp_port < 0) cfg.tcp_port = 0;
    server = std::make_unique<Server>(cfg);
    server->start();
  }
  ~ServerFixture() { server->stop(); }
  Client connect() { return Client::connect_tcp(server->tcp_port()); }
  std::unique_ptr<Server> server;
};

Request open_request(const layout::Layout& layout,
                     const pilfill::FlowConfig& cfg) {
  Request req;
  req.op = Op::kOpenSession;
  std::ostringstream pld;
  layout::write_pld(layout, pld);
  req.layout_pld = pld.str();
  req.config = cfg;
  return req;
}

TEST(ServiceServer, SolvesBitIdenticalToInProcessSession) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  const std::vector<pilfill::Method> methods = {pilfill::Method::kIlp2,
                                                pilfill::Method::kGreedy};
  pilfill::FillSession direct(layout, cfg);
  const pilfill::FlowResult expect = direct.solve(methods);

  ServerFixture fx;
  Client client = fx.connect();
  const Response opened = client.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;
  EXPECT_FALSE(opened.reused);
  EXPECT_EQ(opened.layout_hash, layout_fingerprint(layout));
  EXPECT_GT(opened.tiles, 0);

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = methods;
  solve.include_placement = true;
  const Response solved = client.call(solve);
  ASSERT_TRUE(solved.ok) << solved.error;
  EXPECT_FALSE(solved.shed);
  EXPECT_FALSE(solved.degraded);
  ASSERT_EQ(solved.methods.size(), methods.size());
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const MethodSummary& got = solved.methods[i];
    const pilfill::MethodResult& want = expect.methods[i];
    EXPECT_EQ(got.requested, methods[i]);
    EXPECT_EQ(got.served, methods[i]);
    EXPECT_EQ(got.placed, want.placed);
    // Bit-identical: exact doubles and the exact placement rectangles.
    EXPECT_EQ(got.delay_ps, want.impact.delay_ps);
    EXPECT_EQ(got.weighted_delay_ps, want.impact.weighted_delay_ps);
    EXPECT_EQ(got.placement_hash,
              placement_fingerprint(want.placement.features));
    ASSERT_EQ(got.placement.size(), want.placement.features.size());
    for (std::size_t j = 0; j < got.placement.size(); ++j) {
      EXPECT_EQ(got.placement[j].xlo, want.placement.features[j].xlo);
      EXPECT_EQ(got.placement[j].yhi, want.placement.features[j].yhi);
    }
  }
}

TEST(ServiceServer, EditThenSolveMatchesInProcessEditedSession) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  const std::vector<pilfill::Method> methods = {pilfill::Method::kGreedy};

  // Find a valid stub edit: tap the first long horizontal segment.
  pilfill::WireEdit edit;
  bool found = false;
  for (const auto& seg : layout.segments()) {
    if (seg.layer != 0 || seg.removed()) continue;
    if (seg.orientation() != layout::Orientation::kHorizontal) continue;
    if (seg.length() < 10.0) continue;
    const double tap = (seg.a.x + seg.b.x) / 2;
    edit = pilfill::WireEdit::add_segment(seg.net, {tap, seg.a.y},
                                          {tap, seg.a.y + 2.0}, 0.4);
    found = true;
    break;
  }
  ASSERT_TRUE(found);

  pilfill::FillSession direct(layout, cfg);
  direct.apply_edit(edit);
  const pilfill::FlowResult expect = direct.solve(methods);

  ServerFixture fx;
  Client client = fx.connect();
  const Response opened = client.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request edit_req;
  edit_req.op = Op::kApplyEdit;
  edit_req.session = opened.session;
  edit_req.edit = edit;
  const Response edited = client.call(edit_req);
  ASSERT_TRUE(edited.ok) << edited.error;
  ASSERT_TRUE(edited.edit.has_value());
  EXPECT_GT(edited.edit->tiles_dirty, 0);

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = methods;
  const Response solved = client.call(solve);
  ASSERT_TRUE(solved.ok) << solved.error;
  EXPECT_EQ(solved.methods.at(0).placement_hash,
            placement_fingerprint(expect.methods.at(0).placement.features));
}

TEST(ServiceServer, ReusesWarmSessionsByLayoutAndModel) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  ServerFixture fx;
  Client a = fx.connect();
  Client b = fx.connect();
  const Response first = a.call(open_request(layout, cfg));
  ASSERT_TRUE(first.ok) << first.error;
  const Response second = b.call(open_request(layout, cfg));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.session, first.session);

  // A different model half must get its own session.
  pilfill::FlowConfig other = cfg;
  other.window_um = 16.0;
  const Response third = a.call(open_request(layout, other));
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.reused);
  EXPECT_NE(third.session, first.session);

  // A different policy half must NOT split the pool.
  pilfill::FlowConfig policy_only = cfg;
  policy_only.threads = 4;
  const Response fourth = b.call(open_request(layout, policy_only));
  ASSERT_TRUE(fourth.ok) << fourth.error;
  EXPECT_TRUE(fourth.reused);
  EXPECT_EQ(fourth.session, first.session);
}

TEST(ServiceServer, ValidationErrorsCarryTheFieldPath) {
  ServerFixture fx;
  Client client = fx.connect();
  pilfill::FlowConfig bad = small_config();
  bad.window_um = -3.0;
  const Response resp = client.call(open_request(small_layout(), bad));
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_field, "model.window_um");
}

TEST(ServiceServer, UnknownSessionAndBadFramesAreHandled) {
  ServerFixture fx;
  Client client = fx.connect();
  Request solve;
  solve.op = Op::kSolve;
  solve.session = "s999";
  solve.methods = {pilfill::Method::kGreedy};
  const Response resp = client.call(solve);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown session"), std::string::npos);
  expect_client_facing(resp.error);

  // Malformed JSON in a well-formed frame: an error response, connection
  // stays usable? No -- the server answers and keeps the connection; the
  // next valid request must still work.
  const Response err = decode_response(client.call_raw("this is not json"));
  EXPECT_FALSE(err.ok);
  Request stats;
  stats.op = Op::kStats;
  const Response ok = client.call(stats);
  EXPECT_TRUE(ok.ok);

  // Wrong schema version: rejected with a versioned error.
  const Response wrong = decode_response(client.call_raw(
      "{\"schema\":\"pil.request.v2\",\"op\":\"stats\"}"));
  EXPECT_FALSE(wrong.ok);
  EXPECT_NE(wrong.error.find("pil.request.v1"), std::string::npos);

  // A layout the client supplies is rejected without source locations,
  // whether it arrives as PLD text or as a generator spec.
  const std::string head =
      "PLD 1\nDIE 0 0 32 32\n"
      "LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9\n";
  std::vector<Request> opens(5);
  opens[0].layout_pld = head + "NET n0 SOURCE 40 5 RDRV 100\nEND\n";
  opens[1].layout_pld =
      head + "LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9\n";
  opens[2].layout_pld = head + "BLOCKAGE m3 20 20 40 30\n";
  opens[3].gen = GenSpec{};
  opens[3].gen->die_um = -5.0;
  opens[4].gen = GenSpec{};
  opens[4].gen->die_um = 1.0;  // too small for four tracks
  for (Request& open : opens) {
    open.op = Op::kOpenSession;
    open.config = small_config();
    const Response rejected = client.call(open);
    EXPECT_FALSE(rejected.ok);
    EXPECT_FALSE(rejected.error.empty());
    expect_client_facing(rejected.error);
    if (!open.layout_pld.empty())  // each PLD's bad line is its fourth
      EXPECT_NE(rejected.error.find("line 4"), std::string::npos)
          << rejected.error;
  }
}

TEST(ServiceServer, OversizeFrameGetsDiagnosedThenDisconnected) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 64;
  ServerFixture fx(cfg);
  Client client = fx.connect();
  const std::string big(1000, 'x');
  const std::string raw = client.call_raw(big);  // frame announces 1000 > 64
  const Response resp = decode_response(raw);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("exceeds"), std::string::npos);
  // After the diagnostic the server hangs up.
  std::string more;
  EXPECT_EQ(read_frame(client.fd(), more), FrameReadStatus::kClosed);
}

TEST(ServiceServer, TruncatedFrameDoesNotWedgeTheServer) {
  ServerFixture fx;
  {
    Client client = fx.connect();
    // Announce 100 bytes, send 3, hang up.
    const char partial[7] = {0, 0, 0, 100, 'a', 'b', 'c'};
    client.send_bytes(std::string_view(partial, 7));
  }  // close
  Client fresh = fx.connect();
  Request stats;
  stats.op = Op::kStats;
  EXPECT_TRUE(fresh.call(stats).ok);
}

TEST(ServiceServer, ShedsIlpToGreedyUnderPressureBitIdentically) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  pilfill::FillSession direct(layout, cfg);
  const pilfill::FlowResult greedy =
      direct.solve({pilfill::Method::kGreedy});

  ServerConfig scfg;
  scfg.degrade_queue_depth = 1;  // deterministic: every solve sheds
  ServerFixture fx(scfg);
  Client client = fx.connect();
  const Response opened = client.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kIlp2};
  const Response resp = client.call(solve);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_TRUE(resp.shed);
  EXPECT_TRUE(resp.degraded);
  ASSERT_EQ(resp.methods.size(), 1u);
  EXPECT_EQ(resp.methods[0].requested, pilfill::Method::kIlp2);
  EXPECT_EQ(resp.methods[0].served, pilfill::Method::kGreedy);
  // The shed solve is exactly the greedy solve, not some approximation.
  EXPECT_EQ(resp.methods[0].placement_hash,
            placement_fingerprint(greedy.methods.at(0).placement.features));

  const ServerStats stats = fx.server->stats();
  EXPECT_GE(stats.shed, 1);
}

TEST(ServiceServer, RejectsWhenFullIfConfigured) {
  ServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 1;
  scfg.reject_when_full = true;
  ServerFixture fx(scfg);

  // Saturate the single worker + the single queue slot with opens of
  // distinct layouts, then watch later requests bounce.
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i)
    clients.emplace_back([&fx, &rejected, i] {
      Client c = fx.connect();
      Request req = open_request(small_layout(static_cast<std::uint64_t>(i)),
                                 small_config());
      const Response resp = c.call(req);
      if (!resp.ok && resp.shed) rejected.fetch_add(1);
    });
  for (auto& t : clients) t.join();
  // With 6 concurrent prep-heavy opens against capacity 2 (1 executing +
  // 1 queued), at least one must have been turned away.
  EXPECT_GE(rejected.load(), 1);
  EXPECT_GE(fx.server->stats().rejected, 1);
}

TEST(ServiceServer, ConcurrentEditorsOnSharedSessionStaySerialized) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  ServerFixture fx;

  Client opener = fx.connect();
  const Response opened = opener.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;

  // N concurrent solvers of the same warm session: all must succeed and
  // all must return the same bits (no one observes a half-applied state).
  constexpr int kEditors = 8;
  std::vector<std::string> hashes(kEditors);
  std::vector<std::thread> editors;
  std::atomic<int> failures{0};
  for (int i = 0; i < kEditors; ++i)
    editors.emplace_back([&fx, &opened, &hashes, &failures, i] {
      try {
        Client c = fx.connect();
        Request solve;
        solve.op = Op::kSolve;
        solve.session = opened.session;
        solve.methods = {pilfill::Method::kGreedy};
        const Response resp = c.call(solve);
        if (!resp.ok || resp.methods.size() != 1) {
          failures.fetch_add(1);
          return;
        }
        std::ostringstream os;
        os << std::hex << resp.methods[0].placement_hash;
        hashes[static_cast<std::size_t>(i)] = os.str();
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  for (auto& t : editors) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < kEditors; ++i) EXPECT_EQ(hashes[0], hashes[i]);

  pilfill::FillSession direct(layout, cfg);
  const pilfill::FlowResult expect =
      direct.solve({pilfill::Method::kGreedy});
  std::ostringstream want;
  want << std::hex
       << placement_fingerprint(expect.methods.at(0).placement.features);
  EXPECT_EQ(hashes[0], want.str());
}

TEST(ServiceServer, PerRequestDeadlineDegradesInsteadOfErroring) {
  const layout::Layout layout = small_layout();
  ServerFixture fx;
  Client client = fx.connect();
  const Response opened =
      client.call(open_request(layout, small_config()));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kIlp2};
  solve.deadline_ms = 1e-3;  // hopelessly tight: expires in the queue
  const Response resp = client.call(solve);
  ASSERT_TRUE(resp.ok) << resp.error;
  // The ladder serves every tile from its cheap end; the response says
  // degraded rather than failing the request.
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.methods.at(0).tiles_failed, 0);
}

TEST(ServiceServer, StatsAndShutdownRoundTrip) {
  ServerFixture fx;
  Client client = fx.connect();
  Request stats;
  stats.op = Op::kStats;
  const Response s = client.call(stats);
  ASSERT_TRUE(s.ok);
  const obs::JsonValue doc = obs::parse_json(s.stats_json);
  EXPECT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("executed") != nullptr);
  EXPECT_TRUE(doc.find("queue_peak") != nullptr);

  Request shutdown;
  shutdown.op = Op::kShutdown;
  const Response down = client.call(shutdown);
  EXPECT_TRUE(down.ok);
  fx.server->wait_for_shutdown();  // must return promptly
  fx.server->stop();
}

TEST(ServiceServer, LoopbackTcpRoundTripsDoNotWaitForDelayedAcks) {
  // A stats request does no work, so its round trip is transport alone.
  // A frame written in two sends would let Nagle's algorithm hold each
  // direction's payload for the peer's delayed ACK: ~85 ms a round trip.
  ServerFixture fx;
  Client client = fx.connect();
  Request stats;
  stats.op = Op::kStats;
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.call(stats).ok);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 20.0) << "median loopback-TCP stats round trip, ms";
}

TEST(ServiceServer, UnixSocketTransportWorks) {
  const std::string path = scratch_socket("unix");
  ServerConfig scfg;
  scfg.unix_socket = path;
  {
    Server server(scfg);
    server.start();
    Client client = Client::connect_unix(path);
    Request stats;
    stats.op = Op::kStats;
    EXPECT_TRUE(client.call(stats).ok);
    server.stop();
  }
  // Clean shutdown removes the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------- observability --

TEST(ServiceProtocol, TraceIdAndStagesRoundTripTheCodec) {
  Request req;
  req.op = Op::kStats;
  req.trace_id = 0xdeadbeef12345678ull;
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.trace_id, 0xdeadbeef12345678ull);
  // trace_id 0 means unset and stays off the wire.
  Request bare;
  bare.op = Op::kStats;
  EXPECT_EQ(encode_request(bare).find("trace_id"), std::string::npos);

  Response resp;
  resp.ok = true;
  resp.op = Op::kSolve;
  resp.trace_id = 0xff00ff00ff00ff0full;
  StageBreakdown stages;
  stages.queue_ms = 0.125;
  stages.admission_ms = 0.5;
  stages.session_ms = 1.25;
  stages.solve_ms = 40.0;
  stages.write_ms = 0.0625;  // representable doubles: exact round-trip
  resp.stages = stages;
  const Response rback = decode_response(encode_response(resp));
  EXPECT_EQ(rback.trace_id, 0xff00ff00ff00ff0full);
  ASSERT_TRUE(rback.stages.has_value());
  EXPECT_EQ(rback.stages->queue_ms, 0.125);
  EXPECT_EQ(rback.stages->admission_ms, 0.5);
  EXPECT_EQ(rback.stages->session_ms, 1.25);
  EXPECT_EQ(rback.stages->solve_ms, 40.0);
  EXPECT_EQ(rback.stages->write_ms, 0.0625);
  EXPECT_DOUBLE_EQ(rback.stages->total_ms(), stages.total_ms());
}

TEST(ServiceServer, ClientPinnedTraceIsEchoedServerAssignedOtherwise) {
  ServerFixture fx;
  Client client = fx.connect();
  Request stats;
  stats.op = Op::kStats;
  stats.trace_id = 0xabcdef01ull;
  EXPECT_EQ(client.call(stats).trace_id, 0xabcdef01ull);

  // Without a pinned trace the server assigns distinct nonzero ids.
  stats.trace_id = 0;
  const std::uint64_t t1 = client.call(stats).trace_id;
  const std::uint64_t t2 = client.call(stats).trace_id;
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t2, 0u);
  EXPECT_NE(t1, t2);
}

TEST(ServiceServer, ExecutedSolveCarriesStageBreakdown) {
  ServerFixture fx;
  Client client = fx.connect();
  const Response opened =
      client.call(open_request(small_layout(), small_config()));
  ASSERT_TRUE(opened.ok) << opened.error;
  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kGreedy};
  const Response resp = client.call(solve);
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_TRUE(resp.stages.has_value());
  EXPECT_GT(resp.stages->solve_ms, 0.0);
  EXPECT_GE(resp.stages->queue_ms, 0.0);
  EXPECT_GE(resp.stages->admission_ms, 0.0);
  EXPECT_GE(resp.stages->session_ms, 0.0);
  EXPECT_GE(resp.stages->write_ms, 0.0);
  // An error response still reports how far it got.
  Request bad;
  bad.op = Op::kSolve;
  bad.session = "no_such_session";
  bad.methods = {pilfill::Method::kGreedy};
  const Response failed = client.call(bad);
  ASSERT_FALSE(failed.ok);
  EXPECT_TRUE(failed.stages.has_value());
}

TEST(ServiceAccessLog, WritesOneJsonLinePerRequestAndRotates) {
  const std::string path =
      "/tmp/pil_access_test_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  {
    AccessLog log(path, /*max_bytes=*/256);
    log.write("{\"schema\":\"pil.access.v1\",\"n\":1}");
    log.write("{\"schema\":\"pil.access.v1\",\"n\":2}");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(obs::parse_json(line).is_object()) << line;
  }
  EXPECT_EQ(lines, 2);

  // Push past max_bytes: the log rotates to <path>.1 and keeps writing.
  {
    AccessLog log(path, /*max_bytes=*/256);
    const std::string big(200, 'x');
    for (int i = 0; i < 5; ++i)
      log.write("{\"schema\":\"pil.access.v1\",\"pad\":\"" + big + "\"}");
  }
  EXPECT_EQ(::access((path + ".1").c_str(), F_OK), 0);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServiceHttp, EndpointsServeHealthMetricsAndSlo) {
  obs::set_metrics_enabled(true);
  ServerConfig scfg;
  scfg.http_port = 0;  // ephemeral loopback
  ServerFixture fx(scfg);
  const int port = fx.server->http_port();
  ASSERT_GT(port, 0);

  // Traffic first, so /slo and /metrics have something to show.
  Client client = fx.connect();
  const Response opened =
      client.call(open_request(small_layout(), small_config()));
  ASSERT_TRUE(opened.ok) << opened.error;
  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kGreedy};
  ASSERT_TRUE(client.call(solve).ok);

  int status = 0;
  EXPECT_EQ(http_get("/healthz", port, "", &status), "ok\n");
  EXPECT_EQ(status, 200);

  const std::string metrics = http_get("/metrics", port, "", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);
  EXPECT_NE(metrics.find("pil_service_requests_total"), std::string::npos);

  const std::string slo = http_get("/slo", port, "", &status);
  EXPECT_EQ(status, 200);
  const obs::JsonValue doc = obs::parse_json(slo);
  EXPECT_EQ(doc.at("schema").str_v, "pil.slo.v1");
  EXPECT_GE(doc.at("requests_total").num_v, 2.0);
  const obs::JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->items.size(), 3u);
  EXPECT_GT(windows->items[0].at("requests").num_v, 0.0);
  EXPECT_GT(windows->items[0].at("latency_p50_seconds").num_v, 0.0);

  http_get("/nope", port, "", &status);
  EXPECT_EQ(status, 404);
  obs::set_metrics_enabled(false);
}

// The acceptance path: a request's trace id must be findable in a flight
// dump, and its journal flow must tie the service event to the solver's
// per-tile events (the grep-by-trace postmortem workflow).
TEST(ServiceFlight, RequestTraceCorrelatesWithSolverEventsInDump) {
  obs::set_journal_armed(true);
  constexpr std::uint64_t kTrace = 0x00000000feedf00dull;
  {
    ServerFixture fx;
    Client client = fx.connect();
    const Response opened =
        client.call(open_request(small_layout(), small_config()));
    ASSERT_TRUE(opened.ok) << opened.error;
    Request solve;
    solve.op = Op::kSolve;
    solve.session = opened.session;
    solve.methods = {pilfill::Method::kGreedy};
    solve.trace_id = kTrace;
    ASSERT_TRUE(client.call(solve).ok);
  }  // stop() quiesces the journal before the dump below

  std::ostringstream os;
  obs::FlightWriteOptions options;
  options.cause = "requested";
  obs::write_flight_json(os, options);
  const obs::FlightDump dump = obs::parse_flight_json(os.str());

  const obs::FlightEvent* traced = nullptr;
  for (const obs::FlightEvent& ev : dump.events)
    if (ev.kind == "service_request" && ev.trace == "00000000feedf00d")
      traced = &ev;
  ASSERT_NE(traced, nullptr) << "pinned trace not in the dump";
  ASSERT_NE(traced->flow, 0u);

  // The same flow id must appear on solver-side tile events: that is the
  // correlation a postmortem walks from trace -> flow -> cause chain.
  int tile_events = 0;
  bool response_event = false;
  for (const obs::FlightEvent& ev : dump.events) {
    if (ev.flow != traced->flow) continue;
    if (ev.kind == "tile_begin" || ev.kind == "tile_end") ++tile_events;
    if (ev.kind == "service_response" && ev.trace == traced->trace)
      response_event = true;
  }
  EXPECT_GT(tile_events, 0);
  EXPECT_TRUE(response_event);
}

// -------------------------------------------------------- chaos hardening --

/// Arms the process-wide fault plan for a test scope; the destructor
/// always disarms so one failing chaos test cannot poison the rest.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec, std::uint64_t seed = 0) {
    util::set_fault_plan(util::FaultPlan::parse(spec, seed));
  }
  ~FaultGuard() { util::clear_fault_plan(); }
};

/// Distinct valid stub edits: tap up to `max_count` long horizontal
/// layer-0 segments at their midpoints (same recipe as the edit tests).
/// Candidates are vetted against a scratch session -- a stub that happens
/// to reconnect its own net (closing a loop in the routing graph) is
/// rightly rejected by apply_edit and must not be offered to the tests.
std::vector<pilfill::WireEdit> tap_edits(const layout::Layout& layout,
                                         std::size_t max_count) {
  std::vector<pilfill::WireEdit> edits;
  std::set<int> tapped_nets;
  pilfill::FillSession scratch(layout, small_config());
  for (const auto& seg : layout.segments()) {
    if (edits.size() >= max_count) break;
    if (seg.layer != 0 || seg.removed()) continue;
    if (seg.orientation() != layout::Orientation::kHorizontal) continue;
    if (seg.length() < 10.0) continue;
    if (!tapped_nets.insert(seg.net).second) continue;
    const double tap = (seg.a.x + seg.b.x) / 2;
    const pilfill::WireEdit candidate = pilfill::WireEdit::add_segment(
        seg.net, {tap, seg.a.y}, {tap, seg.a.y + 2.0}, 0.4);
    try {
      scratch.apply_edit(candidate);
    } catch (const Error&) {
      continue;  // e.g. the stub would close a loop on this net
    }
    edits.push_back(candidate);
  }
  return edits;
}

TEST(ServiceFault, ParsesServicePlaneSiteNames) {
  const util::FaultPlan plan = util::FaultPlan::parse(
      "accept_drop:throw:1,frame_truncate:throw:0.5,frame_delay:delay:1:5,"
      "conn_reset:throw:0.25,worker_throw:throw:1");
  EXPECT_TRUE(plan.rule(util::FaultSite::kAcceptDrop).armed);
  EXPECT_TRUE(plan.rule(util::FaultSite::kFrameTruncate).armed);
  EXPECT_EQ(plan.rule(util::FaultSite::kFrameDelay).action,
            util::FaultAction::kDelay);
  EXPECT_EQ(plan.rule(util::FaultSite::kConnReset).probability, 0.25);
  EXPECT_TRUE(plan.rule(util::FaultSite::kWorkerThrow).armed);
  EXPECT_STREQ(util::to_string(util::FaultSite::kAcceptDrop), "accept_drop");
  EXPECT_STREQ(util::to_string(util::FaultSite::kFrameTruncate),
               "frame_truncate");
  EXPECT_STREQ(util::to_string(util::FaultSite::kFrameDelay), "frame_delay");
  EXPECT_STREQ(util::to_string(util::FaultSite::kConnReset), "conn_reset");
  EXPECT_STREQ(util::to_string(util::FaultSite::kWorkerThrow),
               "worker_throw");
  EXPECT_THROW(util::FaultPlan::parse("accept_dorp:throw:1"), Error);
}

TEST(ServiceFraming, TruncatedWriterYieldsTruncatedReadStatus) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Announce the full payload, deliver less than half, hang up: exactly
  // what the frame_truncate chaos site does to a response.
  write_frame_truncated(fds[1], "0123456789", 4);
  ::close(fds[1]);
  std::string got;
  EXPECT_EQ(read_frame(fds[0], got), FrameReadStatus::kTruncated);
  ::close(fds[0]);
}

TEST(ServiceFraming, TimedReadReportsSilenceAndTrickleAsTimeout) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string got;
  // Total silence: the budget expires before the header arrives.
  EXPECT_EQ(read_frame(fds[0], got, kDefaultMaxFrameBytes, 0.05),
            FrameReadStatus::kTimeout);
  // Slow loris: trickling header bytes must not extend the budget -- it
  // spans the whole frame, not each read.
  const char partial[2] = {0, 0};
  ASSERT_EQ(::write(fds[1], partial, 2), 2);
  EXPECT_EQ(read_frame(fds[0], got, kDefaultMaxFrameBytes, 0.05),
            FrameReadStatus::kTimeout);
  // A whole frame inside the budget reads normally.
  write_frame(fds[1], "prompt");
  EXPECT_EQ(read_frame(fds[0], got, kDefaultMaxFrameBytes, 5.0),
            FrameReadStatus::kOk);
  EXPECT_EQ(got, "prompt");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceServer, ReadTimeoutDisconnectsSlowLorisClients) {
  ServerConfig scfg;
  scfg.read_timeout_seconds = 0.05;
  ServerFixture fx(scfg);
  Client client = fx.connect();
  // Three of four header bytes, then silence: the server must hang up
  // rather than hold the connection (and its thread) forever.
  const char partial[3] = {0, 0, 0};
  client.send_bytes(std::string_view(partial, 3));
  std::string got;
  EXPECT_EQ(read_frame(client.fd(), got), FrameReadStatus::kClosed);
  EXPECT_GE(fx.server->stats().read_timeouts, 1);
}

TEST(ServiceChaos, AcceptDropRecoversWithRetries) {
  ServerFixture fx;
  FaultGuard guard("accept_drop:throw:1");
  Client client = fx.connect();  // accepted, then dropped by the fault
  Request stats;
  stats.op = Op::kStats;
  // While every accept is dropped, the un-retried call must fail as a
  // transport drop, not hang or succeed.
  try {
    client.call(stats);
    FAIL() << "expected a transport drop";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDropped);
  }
  // Heal the plane shortly; a retrying client rides it out.
  std::thread healer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    util::clear_fault_plan();
  });
  RetryPolicy retry;
  retry.retries = 40;
  retry.backoff_ms = 20.0;
  retry.backoff_max_ms = 50.0;
  retry.jitter_seed = 1;
  const Response resp = client.call_with_retry(stats, retry);
  healer.join();
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_GE(fx.server->stats().faults_injected, 1);
}

TEST(ServiceChaos, WorkerThrowIsFlaggedRetryableAndRecovered) {
  ServerFixture fx;
  Client client = fx.connect();
  FaultGuard guard("worker_throw:throw:1");
  Request stats;
  stats.op = Op::kStats;
  // The worker throws before the op runs: nothing executed, so the
  // error response says "retry me".
  const Response failed = client.call(stats);
  EXPECT_FALSE(failed.ok);
  EXPECT_TRUE(failed.retryable);
  std::thread healer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    util::clear_fault_plan();
  });
  RetryPolicy retry;
  retry.retries = 40;
  retry.backoff_ms = 20.0;
  retry.backoff_max_ms = 50.0;
  retry.jitter_seed = 2;
  const Response resp = client.call_with_retry(stats, retry);
  healer.join();
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_GE(fx.server->stats().faults_injected, 1);
}

TEST(ServiceChaos, TruncatedResponsesAreDroppedThenRetried) {
  ServerFixture fx;
  Client client = fx.connect();
  FaultGuard guard("frame_truncate:throw:1");
  Request stats;
  stats.op = Op::kStats;
  try {
    client.call(stats);
    FAIL() << "expected a transport drop";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDropped);
  }
  std::thread healer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    util::clear_fault_plan();
  });
  RetryPolicy retry;
  retry.retries = 40;
  retry.backoff_ms = 20.0;
  retry.backoff_max_ms = 50.0;
  retry.jitter_seed = 3;
  const Response resp = client.call_with_retry(stats, retry);
  healer.join();
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_GE(fx.server->stats().faults_injected, 1);
}

TEST(ServiceChaos, FrameDelayStallsWithoutFailing) {
  ServerFixture fx;
  Client client = fx.connect();
  FaultGuard guard("frame_delay:delay:1:50");
  Request stats;
  stats.op = Op::kStats;
  const auto t0 = std::chrono::steady_clock::now();
  const Response resp = client.call(stats);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_GE(elapsed, 0.04);
}

TEST(ServiceServer, DedupWindowAcknowledgesRetriedEditsOnce) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  const std::vector<pilfill::WireEdit> edits = tap_edits(layout, 1);
  ASSERT_EQ(edits.size(), 1u);

  pilfill::FillSession direct(layout, cfg);
  direct.apply_edit(edits[0]);
  const pilfill::FlowResult expect =
      direct.solve({pilfill::Method::kGreedy});

  ServerFixture fx;
  Client client = fx.connect();
  const Response opened = client.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request edit_req;
  edit_req.op = Op::kApplyEdit;
  edit_req.session = opened.session;
  edit_req.edit = edits[0];
  edit_req.request_id = 0x1234abcdull;
  const Response first = client.call(edit_req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.deduped);
  EXPECT_EQ(first.edit_seq, 1);

  // The "retry": same request_id is acknowledged from the dedup window,
  // not applied a second time.
  const Response again = client.call(edit_req);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.deduped);
  EXPECT_EQ(again.edit_seq, 1);

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kGreedy};
  const Response solved = client.call(solve);
  ASSERT_TRUE(solved.ok) << solved.error;
  EXPECT_EQ(solved.edit_seq, 1);  // exactly one application
  EXPECT_EQ(solved.methods.at(0).placement_hash,
            placement_fingerprint(expect.methods.at(0).placement.features));
  EXPECT_GE(fx.server->stats().deduped, 1);
}

TEST(ServiceServer, DedupWindowEvictsOldestBeyondConfiguredSize) {
  const layout::Layout layout = small_layout();
  const std::vector<pilfill::WireEdit> edits = tap_edits(layout, 3);
  ASSERT_GE(edits.size(), 3u);
  ServerConfig scfg;
  scfg.dedup_window = 1;
  ServerFixture fx(scfg);
  Client client = fx.connect();
  const Response opened =
      client.call(open_request(layout, small_config()));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request req;
  req.op = Op::kApplyEdit;
  req.session = opened.session;
  req.edit = edits[0];
  req.request_id = 1;
  const Response a = client.call(req);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.edit_seq, 1);

  req.edit = edits[1];
  req.request_id = 2;  // window of 1: this evicts request_id 1
  const Response b = client.call(req);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.edit_seq, 2);

  // request_id 1 fell out of the window, so its reuse is new work, not
  // an acknowledgement -- the documented bound of the dedup guarantee.
  req.edit = edits[2];
  req.request_id = 1;
  const Response c = client.call(req);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_FALSE(c.deduped);
  EXPECT_EQ(c.edit_seq, 3);
}

// The headline chaos guarantee in miniature: a retrying client editing
// through connection resets converges on exactly the state an undisturbed
// in-process session reaches -- no lost edits, no double applications.
TEST(ServiceChaos, ConnResetRetriedEditsStayIdempotent) {
  const layout::Layout layout = small_layout();
  const pilfill::FlowConfig cfg = small_config();
  const std::vector<pilfill::WireEdit> edits = tap_edits(layout, 6);
  ASSERT_GE(edits.size(), 2u);

  pilfill::FillSession direct(layout, cfg);
  for (const pilfill::WireEdit& e : edits) direct.apply_edit(e);
  const pilfill::FlowResult expect =
      direct.solve({pilfill::Method::kGreedy});

  ServerFixture fx;
  // Every other response (deterministically, by write ordinal) is torn
  // down with an RST instead of being delivered.
  FaultGuard guard("conn_reset:throw:0.5", /*seed=*/7);
  RetryPolicy retry;
  retry.retries = 15;
  retry.backoff_ms = 5.0;
  retry.backoff_max_ms = 40.0;
  retry.jitter_seed = 99;

  Client client = fx.connect();
  Request open = open_request(layout, cfg);
  const Response opened = client.call_with_retry(open, retry);
  ASSERT_TRUE(opened.ok) << opened.error;

  for (const pilfill::WireEdit& e : edits) {
    Request edit_req;
    edit_req.op = Op::kApplyEdit;
    edit_req.session = opened.session;
    edit_req.edit = e;  // request_id auto-assigned by call_with_retry
    const Response resp = client.call_with_retry(edit_req, retry);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_NE(edit_req.request_id, 0u);
  }

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kGreedy};
  const Response solved = client.call_with_retry(solve, retry);
  ASSERT_TRUE(solved.ok) << solved.error;
  // Exactly one application per edit, and the same bits as the
  // undisturbed run.
  EXPECT_EQ(solved.edit_seq,
            static_cast<long long>(edits.size()));
  EXPECT_EQ(solved.methods.at(0).placement_hash,
            placement_fingerprint(expect.methods.at(0).placement.features));

  // Drive stats traffic until at least one reset has provably fired (the
  // write ordinals advance with the whole process's response history, so
  // which particular response gets hit is not pinned down here).
  Request stats;
  stats.op = Op::kStats;
  for (int i = 0; i < 200; ++i) {
    if (fx.server->stats().faults_injected > 0) break;
    const Response s = client.call_with_retry(stats, retry);
    ASSERT_TRUE(s.ok) << s.error;
  }
  EXPECT_GE(fx.server->stats().faults_injected, 1);
}

TEST(ServiceChaos, WatchdogJournalsStuckWorkersAndCancelsOverruns) {
  obs::set_journal_armed(true);
  ServerConfig scfg;
  scfg.watchdog_grace_seconds = 0.05;
  scfg.watchdog_poll_seconds = 0.01;
  ServerFixture fx(scfg);
  Client client = fx.connect();

  // The session's own fault plan stalls every tile solve by 100 ms, so a
  // 20 ms flow deadline is overrun far past deadline + grace.
  pilfill::FlowConfig cfg = small_config();
  cfg.fault_spec = "tile_solve:delay:1:100";
  const layout::Layout layout = small_layout();
  const Response opened = client.call(open_request(layout, cfg));
  ASSERT_TRUE(opened.ok) << opened.error;

  Request solve;
  solve.op = Op::kSolve;
  solve.session = opened.session;
  solve.methods = {pilfill::Method::kGreedy};
  solve.deadline_ms = 20.0;
  const Response solved = client.call(solve);
  util::clear_fault_plan();  // the open_session armed the global plan
  ASSERT_TRUE(solved.ok) << solved.error;

  EXPECT_GE(fx.server->stats().stuck_workers, 1);
  const obs::JournalSnapshot snap = obs::journal_snapshot();
  bool journaled = false;
  for (const obs::JournalEvent& ev : snap.events)
    if (ev.kind == obs::JournalEventKind::kStuckWorker) journaled = true;
  EXPECT_TRUE(journaled);
}

}  // namespace
}  // namespace pil::service

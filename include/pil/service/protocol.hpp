#pragma once
/// \file protocol.hpp
/// Wire protocol for the fill service (`pilserve` / `pilreq`): versioned
/// JSON request/response documents framed with a 4-byte big-endian length
/// prefix over a Unix or loopback-TCP socket.
///
/// Schemas are explicit and evolvable:
///
///   pil.request.v1   {"schema":"pil.request.v1","op":"solve",...}
///   pil.response.v1  {"schema":"pil.response.v1","op":"solve","ok":true,...}
///
/// A v1 endpoint rejects any other schema string outright (no silent
/// best-effort parsing); unknown *fields* inside a v1 document are ignored
/// so a v1 server keeps serving clients that learned optional fields first.
/// Serialization reuses the pil::obs JSON writer/parser -- doubles
/// round-trip bitwise, which is what lets a client assert the service
/// returned results bit-identical to an in-process FillSession.
///
/// See docs/SERVICE.md for the full schema reference.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pil/layout/layout.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/obs/json.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/pilfill/session.hpp"

namespace pil::service {

inline constexpr std::string_view kRequestSchema = "pil.request.v1";
inline constexpr std::string_view kResponseSchema = "pil.response.v1";

/// Hard ceiling on one frame's payload; an incoming frame above the
/// server/client limit is rejected and the connection closed (the stream
/// position is unrecoverable once a length prefix is distrusted).
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

// ------------------------------------------------------------ operations ----

enum class Op {
  kOpenSession,  ///< create (or reuse) a server-side FillSession
  kApplyEdit,    ///< incremental wire edit on an open session
  kSolve,        ///< solve methods on an open session
  kStats,        ///< server counters (admission, queue, sessions)
  kShutdown,     ///< request a graceful server shutdown
};

/// Stable wire name ("open_session", "apply_edit", "solve", "stats",
/// "shutdown").
const char* to_string(Op op);
/// Inverse of to_string; throws pil::Error on an unknown op name.
Op op_from_name(std::string_view name);

// -------------------------------------------------------------- requests ----

/// Synthetic-layout recipe a client can send instead of shipping geometry
/// (tests, benchmarks): a deterministic subset of SyntheticLayoutConfig.
struct GenSpec {
  double die_um = 96.0;
  int num_nets = 60;
  std::uint64_t seed = 4;
  int num_macros = 0;

  layout::SyntheticLayoutConfig to_config() const;
};

/// One decoded pil.request.v1 document. Exactly one of layout_pld /
/// layout_path / gen must be set for open_session; `session` names the
/// target for apply_edit / solve.
struct Request {
  Op op = Op::kStats;
  /// Client-chosen correlation id, echoed verbatim in the response (and
  /// recorded in the flight journal as the request's `b` payload).
  std::uint64_t id = 0;
  /// Request trace id (16-hex-char string on the wire, like layout_hash).
  /// 0 = unset; the server then assigns one and returns it, so every
  /// response carries a nonzero trace_id that correlates the response,
  /// the access-log line, the journal events, and the flight-dump cause
  /// chain for this request.
  std::uint64_t trace_id = 0;
  /// Client-generated idempotency key (16-hex-char string on the wire).
  /// 0 = unset. For apply_edit, a nonzero request_id makes the request
  /// retry-safe: the server remembers recent (request_id -> response)
  /// pairs per session, so a retried edit whose first attempt executed
  /// but whose response was lost is acknowledged from the dedup window
  /// instead of being applied twice. See docs/SERVICE.md.
  std::uint64_t request_id = 0;

  // open_session ------------------------------------------------------------
  std::string layout_pld;   ///< inline .pld text
  std::string layout_path;  ///< server-side path (may be disabled)
  std::optional<GenSpec> gen;
  /// Model half plus the session's *base* policy (threads, default
  /// ladder), spelled by pilfill's config codec. Per-request policy rides
  /// on the solve request instead.
  pilfill::FlowConfig config;
  /// Optional explicit pool key; default is the (layout, model) fingerprint
  /// so identical editors land on the same session.
  std::string session_key;

  // apply_edit / solve ------------------------------------------------------
  std::string session;  ///< session id from open_session
  pilfill::WireEdit edit;
  std::vector<pilfill::Method> methods;
  /// Wall-clock budget for the request measured from *server admission*
  /// (queue wait counts against it); 0 = none. Rides pil::util::Deadline
  /// through the whole solve stack.
  double deadline_ms = 0.0;
  double tile_deadline_ms = 0.0;  ///< per-tile budget; 0 = none
  bool no_degrade = false;  ///< disable the degradation ladder for this call
  /// Return the full placement rectangle list (exact doubles) per method,
  /// not just the fingerprint. Large; meant for verification clients.
  bool include_placement = false;
};

std::string encode_request(const Request& request);
/// Parse + validate one pil.request.v1 document. Throws pil::Error on
/// malformed JSON, a wrong/unsupported schema, or an unknown op/method.
Request decode_request(std::string_view json);

// ------------------------------------------------------------- responses ----

/// apply_edit outcome (mirrors pilfill::EditStats).
struct EditSummary {
  long long segment = -1;
  int columns_rescanned = 0;
  int tiles_retargeted = 0;
  int tiles_dirty = 0;
  double seconds = 0.0;
};

/// One method's solve outcome. `requested` is what the client asked for;
/// `served` is what actually ran (admission control may downgrade ILP
/// methods to Greedy under load -- then degraded is set on the response).
struct MethodSummary {
  pilfill::Method requested = pilfill::Method::kNormal;
  pilfill::Method served = pilfill::Method::kNormal;
  long long placed = 0;
  long long shortfall = 0;
  long long features = 0;
  double delay_ps = 0.0;
  double weighted_delay_ps = 0.0;
  double exact_sink_delay_ps = 0.0;
  long long tiles_node_limit = 0;
  long long tiles_degraded = 0;
  long long tiles_failed = 0;
  double solve_seconds = 0.0;
  double density_min = 0.0;
  double density_max = 0.0;
  double density_mean = 0.0;
  /// FNV-1a over the placement rectangles' raw double bits, in order --
  /// equal hashes across transports mean bit-identical placements.
  std::uint64_t placement_hash = 0;
  /// Populated only when the request set include_placement.
  std::vector<geom::Rect> placement;
};

/// Per-stage server-side handling time for one request, milliseconds.
/// Stage boundaries (see docs/SERVICE.md):
///   admission_ms  frame decoded -> job enqueued (includes any blocking
///                 backpressure wait at a full queue)
///   queue_ms      enqueued -> dequeued by a worker
///   session_ms    session-pool lookup / build + session lock acquisition
///   solve_ms      the FillSession call itself (solve / apply_edit / prep)
///   write_ms      response summary construction (the socket write cannot
///                 observe itself, so it is excluded -- by design)
struct StageBreakdown {
  double queue_ms = 0.0;
  double admission_ms = 0.0;
  double session_ms = 0.0;
  double solve_ms = 0.0;
  double write_ms = 0.0;

  double total_ms() const {
    return queue_ms + admission_ms + session_ms + solve_ms + write_ms;
  }
};

/// One decoded pil.response.v1 document.
struct Response {
  std::uint64_t id = 0;
  Op op = Op::kStats;
  bool ok = false;
  /// Admission control acted on this request (downgrade or reject).
  bool shed = false;
  /// Some method was served below its request -- by admission downgrade
  /// or by the per-tile degradation ladder (failures ride the summaries).
  bool degraded = false;
  std::string error;        ///< human-readable, when !ok
  std::string error_field;  ///< "model.x"/"policy.y" for validation errors
  /// Echo of the request's trace id (server-assigned when the client sent
  /// none). Nonzero on every response the server produced, including
  /// rejections and decode errors.
  std::uint64_t trace_id = 0;
  /// Per-stage handling time; absent on responses the server never
  /// executed (decode errors, queue-full rejections).
  std::optional<StageBreakdown> stages;
  /// Session edit sequence number after this request (apply_edit / solve
  /// on an open session): the count of edits applied so far. Monotonic
  /// per session; clients use it to detect lost or re-applied edits.
  /// 0 = not reported.
  long long edit_seq = 0;
  /// This response was served from the per-session request_id dedup
  /// window -- the original attempt already executed; nothing ran again.
  bool deduped = false;
  /// On !ok: the failure happened before the operation executed (e.g. an
  /// injected worker fault or a queue-full rejection), so a retry with
  /// the same request_id is safe even without the dedup window.
  bool retryable = false;

  // open_session / apply_edit / solve ---------------------------------------
  std::string session;

  // open_session ------------------------------------------------------------
  bool reused = false;
  std::uint64_t layout_hash = 0;
  int tiles = 0;
  double prep_seconds = 0.0;

  std::optional<EditSummary> edit;   ///< apply_edit
  std::vector<MethodSummary> methods;  ///< solve
  std::string stats_json;  ///< stats: pre-serialized JSON object, verbatim
};

std::string encode_response(const Response& response);
/// Parse one pil.response.v1 document. Throws pil::Error on malformed
/// JSON or a wrong schema.
Response decode_response(std::string_view json);
/// The "stages" object that responses and access-log lines carry: the five
/// stage times as *_ms keys, in declaration order.
void write_stage_breakdown(obs::JsonWriter& w, const StageBreakdown& stages);

// ----------------------------------------------------------- fingerprints ----

/// FNV-1a over the canonical .pld serialization -- the session-pool key
/// component that makes "same geometry" well-defined across transports.
/// The other component is pilfill::model_fingerprint (config_codec.hpp).
std::uint64_t layout_fingerprint(const layout::Layout& layout);
/// FNV-1a over the rects' raw double bits, in placement order.
std::uint64_t placement_fingerprint(const std::vector<geom::Rect>& rects);

/// Build a MethodSummary from one solved MethodResult.
MethodSummary summarize_method(const pilfill::MethodResult& mr,
                               pilfill::Method requested,
                               bool include_placement);

// ---------------------------------------------------------------- framing ----

enum class FrameReadStatus {
  kOk,
  kClosed,     ///< orderly EOF on a frame boundary
  kTruncated,  ///< EOF inside a header or payload
  kOversize,   ///< announced length exceeds the limit
  kError,      ///< socket error
  kTimeout,    ///< no complete frame within the read timeout
};

const char* to_string(FrameReadStatus status);

/// Write one length-prefixed frame (blocking, handles partial writes and
/// EINTR; SIGPIPE suppressed). Prefix and payload leave in one send, so
/// Nagle's algorithm never holds the payload for the peer's delayed ACK.
/// Throws pil::Error on a socket error or a payload above 2^31-1 bytes.
void write_frame(int fd, std::string_view payload);

/// Read one frame into `payload` (blocking). Never throws; the status
/// says why a read came back empty. On kOversize the announced length is
/// left in `payload` as decimal text for diagnostics. Gives up with
/// kTimeout when `timeout_seconds` elapses without a complete frame
/// (poll(2)-based; the budget spans the whole frame, so a slow-loris
/// client trickling bytes cannot hold the connection open past it);
/// timeout_seconds <= 0 means no deadline.
FrameReadStatus read_frame(int fd, std::string& payload,
                           std::size_t max_bytes = kDefaultMaxFrameBytes,
                           double timeout_seconds = 0.0);

/// Chaos helper: write a frame header announcing the full payload length
/// but send only the first `bytes` payload bytes (the frame_truncate
/// fault site; the peer's read_frame must report kTruncated once the
/// writer hangs up). Throws pil::Error like write_frame.
void write_frame_truncated(int fd, std::string_view payload,
                           std::size_t bytes);

}  // namespace pil::service

#pragma once
/// \file client.hpp
/// Blocking client for the fill service: one connection, one in-flight
/// request at a time (the protocol is strictly request/response per
/// connection; open several clients for concurrency). Used by `pilreq`,
/// the bench scenarios, and the protocol tests.
///
/// call_with_retry() adds the crash-only discipline: reconnect + bounded
/// exponential backoff with jitter, applied only to requests that are
/// safe to retry -- open_session / solve / stats always, apply_edit once
/// it carries a request_id (auto-assigned; the server's dedup window
/// makes the retry an acknowledgement, not a second application),
/// shutdown never. See docs/ROBUSTNESS.md.

#include <cstdint>
#include <string>
#include <string_view>

#include "pil/service/protocol.hpp"
#include "pil/util/error.hpp"

namespace pil::service {

/// Transport-layer failure, with the taxonomy `pilreq` maps onto exit
/// codes: could-not-connect vs dropped-mid-request vs retries-exhausted.
class TransportError : public Error {
 public:
  enum class Kind {
    kConnect,    ///< connect(2) refused / failed (server not there)
    kDropped,    ///< connection died mid-request, response never arrived
    kExhausted,  ///< every retry attempt failed (or the deadline cut in)
  };

  TransportError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Retry schedule for call_with_retry: `retries` additional attempts
/// after the first, sleeping min(backoff_ms * 2^n, backoff_max_ms) with
/// multiplicative jitter in [0.5, 1) between attempts. The whole budget
/// is clipped by the request's deadline_ms when one is set -- a request
/// that would miss its deadline anyway is not worth re-sending.
struct RetryPolicy {
  int retries = 0;
  double backoff_ms = 50.0;
  double backoff_max_ms = 2000.0;
  /// Jitter / request_id entropy; 0 = derive a per-call seed from the
  /// clock (two clients retrying in lockstep would hammer in phase).
  std::uint64_t jitter_seed = 0;
};

class Client {
 public:
  /// Connect to a server's unix socket. Throws TransportError(kConnect)
  /// on failure.
  static Client connect_unix(const std::string& path);
  /// Connect to a server's loopback TCP port.
  static Client connect_tcp(int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Encode, send, await, decode. Throws TransportError(kDropped) on a
  /// transport failure, pil::Error on an undecodable response; an
  /// application-level failure comes back as Response::ok == false, not
  /// an exception.
  Response call(const Request& request);

  /// call() with reconnect + retries per `policy`. Mutates `request`:
  /// an apply_edit without a request_id is assigned one first (the
  /// idempotency key must be identical across attempts). Retries fire on
  /// transport failures and on responses flagged ok=false + retryable,
  /// for retry-safe ops only -- a non-retry-safe request fails straight
  /// through. Throws TransportError(kExhausted) when attempts run out.
  /// `raw_out`, when non-null, receives the raw response payload of the
  /// attempt that succeeded (pilreq keeps stdout = raw JSON).
  Response call_with_retry(Request& request, const RetryPolicy& policy,
                           std::string* raw_out = nullptr);

  /// Send a raw payload and return the raw response payload -- the hook
  /// protocol tests use to deliver malformed documents. Throws
  /// TransportError(kDropped) when the connection drops instead of
  /// answering.
  std::string call_raw(std::string_view payload);

  /// Send `n` raw bytes with no length prefix (malformed-frame tests).
  void send_bytes(std::string_view bytes);

  /// Drop and re-dial the original endpoint. Throws
  /// TransportError(kConnect) on failure.
  void reconnect();

  int fd() const { return fd_; }
  void close();

 private:
  /// Dials the unix socket `path` when it is non-empty, else loopback
  /// TCP `port`.
  Client(std::string path, int port);

  int fd_ = -1;
  std::size_t max_frame_bytes_ = kDefaultMaxFrameBytes;
  std::string endpoint_path_;
  int endpoint_port_ = -1;
  /// Monotonic per-client call counter folded into the retry rng so every
  /// call_with_retry mints a distinct request_id even under a fixed
  /// jitter_seed.
  std::uint64_t call_seq_ = 0;
};

}  // namespace pil::service

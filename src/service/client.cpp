#include "pil/service/client.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "pil/util/error.hpp"
#include "socket.hpp"

namespace pil::service {

namespace {

/// Connect to the unix socket `path` when it is non-empty, else to
/// 127.0.0.1:`port`; a refused or failed connect is a kConnect error.
int connect_endpoint(const std::string& path, int port) {
  const int fd = sock::dial(path, port);
  if (fd < 0)
    throw TransportError(
        TransportError::Kind::kConnect,
        "cannot connect to " +
            (path.empty() ? "127.0.0.1:" + std::to_string(port)
                          : "unix socket " + path) +
            ": " + std::strerror(errno));
  return fd;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool retry_safe(const Request& request) {
  switch (request.op) {
    case Op::kOpenSession:  // reuse-idempotent by the pool key
    case Op::kSolve:        // non-mutating
    case Op::kStats:        // non-mutating
      return true;
    case Op::kApplyEdit:
      // Safe once it carries an idempotency key for the dedup window.
      return request.request_id != 0;
    case Op::kShutdown:
      // A lost ack may mean the shutdown began; re-sending races stop().
      return false;
  }
  return false;
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  return Client(path, -1);
}

Client Client::connect_tcp(int port) { return Client({}, port); }

Client::Client(std::string path, int port)
    : fd_(connect_endpoint(path, port)),
      endpoint_path_(std::move(path)),
      endpoint_port_(port) {}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      max_frame_bytes_(other.max_frame_bytes_),
      endpoint_path_(std::move(other.endpoint_path_)),
      endpoint_port_(other.endpoint_port_),
      call_seq_(other.call_seq_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    max_frame_bytes_ = other.max_frame_bytes_;
    endpoint_path_ = std::move(other.endpoint_path_);
    endpoint_port_ = other.endpoint_port_;
    call_seq_ = other.call_seq_;
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::reconnect() {
  close();
  fd_ = connect_endpoint(endpoint_path_, endpoint_port_);
}

Response Client::call(const Request& request) {
  return decode_response(call_raw(encode_request(request)));
}

Response Client::call_with_retry(Request& request, const RetryPolicy& policy,
                                 std::string* raw_out) {
  std::uint64_t rng =
      policy.jitter_seed != 0
          ? policy.jitter_seed
          : static_cast<std::uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count()) ^
                (static_cast<std::uint64_t>(
                     reinterpret_cast<std::uintptr_t>(this))
                 << 16);
  // Fold in a per-client call counter: two calls on the same client (or
  // the same fixed jitter_seed) must never mint the same request_id, or
  // distinct edits would dedup against each other.
  rng = mix64(rng + mix64(++call_seq_));
  if (request.op == Op::kApplyEdit && request.request_id == 0) {
    do {
      rng = mix64(rng);
    } while (rng == 0);
    request.request_id = rng;
  }
  const bool safe = retry_safe(request);
  const std::string payload = encode_request(request);
  const auto t0 = std::chrono::steady_clock::now();
  const double budget_s =
      request.deadline_ms > 0 ? request.deadline_ms / 1000.0 : 0.0;
  std::string last_error;
  const int attempts = policy.retries >= 0 ? policy.retries + 1 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff with multiplicative jitter in
      // [0.5, 1): retrying fleets decorrelate instead of re-colliding.
      double delay_ms = policy.backoff_ms;
      for (int i = 1; i < attempt; ++i) delay_ms *= 2;
      if (delay_ms > policy.backoff_max_ms) delay_ms = policy.backoff_max_ms;
      rng = mix64(rng);
      delay_ms *= 0.5 + 0.5 * (static_cast<double>(rng >> 11) *
                               (1.0 / 9007199254740992.0));
      if (budget_s > 0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const double left_ms = (budget_s - elapsed) * 1e3;
        if (left_ms <= 0)
          throw TransportError(
              TransportError::Kind::kExhausted,
              "retry budget exhausted by the request deadline (" +
                  std::to_string(attempt) + " attempts): " + last_error);
        if (delay_ms > left_ms) delay_ms = left_ms;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    try {
      if (fd_ < 0) reconnect();
      const std::string raw = call_raw(payload);
      Response resp = decode_response(raw);
      if (!resp.ok && resp.retryable && safe) {
        // Pre-execution failure (queue-full shed, injected worker fault):
        // retry; falling out of the loop reports exhaustion.
        last_error = resp.error;
        continue;
      }
      if (raw_out != nullptr) *raw_out = raw;
      return resp;
    } catch (const TransportError& e) {
      close();  // the connection state is unknown; re-dial next attempt
      if (!safe) throw;
      last_error = e.what();
    }
  }
  throw TransportError(TransportError::Kind::kExhausted,
                       "request failed after " + std::to_string(attempts) +
                           " attempts: " + last_error);
}

std::string Client::call_raw(std::string_view payload) {
  PIL_REQUIRE(fd_ >= 0, "client is closed");
  try {
    write_frame(fd_, payload);
  } catch (const Error& e) {
    throw TransportError(TransportError::Kind::kDropped, e.what());
  }
  std::string response;
  const FrameReadStatus status = read_frame(fd_, response, max_frame_bytes_);
  if (status != FrameReadStatus::kOk)
    throw TransportError(
        TransportError::Kind::kDropped,
        std::string("service connection dropped while awaiting a "
                    "response (") +
            to_string(status) + ")");
  return response;
}

void Client::send_bytes(std::string_view bytes) {
  PIL_REQUIRE(fd_ >= 0, "client is closed");
  PIL_REQUIRE(sock::write_all(fd_, bytes.data(), bytes.size()),
              "send failed: " + std::string(std::strerror(errno)));
}

}  // namespace pil::service

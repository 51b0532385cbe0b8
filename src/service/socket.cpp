#include "socket.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "pil/service/protocol.hpp"
#include "pil/util/error.hpp"

namespace pil::service {

namespace sock {

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PIL_REQUIRE(path.size() < sizeof(addr.sun_path),
              "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in loopback_address(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

int stream_socket(int family) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  PIL_REQUIRE(fd >= 0, family == AF_UNIX ? "socket(AF_UNIX) failed"
                                         : "socket(AF_INET) failed");
  return fd;
}

template <typename Addr>
int connect_to(int family, const Addr& addr) {
  const int fd = stream_socket(family);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

template <typename Addr>
int listen_on(int family, const Addr& addr, int backlog,
              const std::string& where) {
  const int fd = stream_socket(family);
  if (family == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on " + where + ": " + why);
  }
  return fd;
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

int dial(const std::string& unix_path, int tcp_port) {
  if (!unix_path.empty())
    return connect_to(AF_UNIX, unix_address(unix_path));
  return connect_to(AF_INET, loopback_address(tcp_port));
}

Listener::Listener(const std::string& unix_path, int tcp_port, int backlog) {
  try {
    if (!unix_path.empty()) {
      const sockaddr_un addr = unix_address(unix_path);
      ::unlink(unix_path.c_str());  // stale socket from a dead server
      unix_fd_ = listen_on(AF_UNIX, addr, backlog, "unix socket " + unix_path);
      unix_path_ = unix_path;
    }
    if (tcp_port >= 0) {
      tcp_fd_ = listen_on(AF_INET, loopback_address(tcp_port), backlog,
                          "127.0.0.1:" + std::to_string(tcp_port));
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
      tcp_port_ = ntohs(bound.sin_port);
    }
  } catch (...) {
    release();
    throw;
  }
}

Listener::~Listener() { release(); }

void Listener::release() {
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

int Listener::accept() const {
  if (unix_fd_ < 0 || tcp_fd_ < 0)
    return ::accept(unix_fd_ >= 0 ? unix_fd_ : tcp_fd_, nullptr, nullptr);
  pollfd fds[2] = {{unix_fd_, POLLIN, 0}, {tcp_fd_, POLLIN, 0}};
  for (;;) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    for (const pollfd& p : fds)
      if (p.revents != 0) return ::accept(p.fd, nullptr, nullptr);
  }
}

void Listener::shutdown() const {
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
}

}  // namespace sock

// ---------------------------------------------------------------- framing ----

namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
constexpr ssize_t kTimedOut = -2;

/// Reads exactly n bytes. Returns n on success, 0 on EOF before any byte,
/// the partial count on EOF mid-way, -1 on error, and kTimedOut once
/// `deadline` passes. With a deadline it polls before every read, so a
/// peer trickling one byte at a time exhausts the same budget as one that
/// sends nothing.
ssize_t read_all(int fd, char* data, std::size_t n,
                 Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline != kNoDeadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return kTimedOut;
      pollfd pfd{fd, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left.count(),
                                                               3600000)));
      if (ready < 0 && errno != EINTR) return -1;
      if (ready <= 0) continue;  // EINTR or poll's cap: re-check the deadline
    }
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

/// Writes the 4-byte big-endian length of the whole `payload`, then its
/// first `sent` bytes, as one buffer through one write_all: a frame
/// leaves in one send (see socket.hpp).
void send_frame(int fd, std::string_view payload, std::size_t sent) {
  PIL_REQUIRE(payload.size() <= 0x7fffffffu, "frame payload too large");
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + sent);
  for (int shift = 24; shift >= 0; shift -= 8)
    frame.push_back(static_cast<char>((n >> shift) & 0xff));
  frame.append(payload.substr(0, sent));
  PIL_REQUIRE(sock::write_all(fd, frame.data(), frame.size()),
              "frame write failed: " + std::string(std::strerror(errno)));
}

}  // namespace

const char* to_string(FrameReadStatus status) {
  switch (status) {
    case FrameReadStatus::kOk: return "ok";
    case FrameReadStatus::kClosed: return "closed";
    case FrameReadStatus::kTruncated: return "truncated";
    case FrameReadStatus::kOversize: return "oversize";
    case FrameReadStatus::kError: return "error";
    case FrameReadStatus::kTimeout: return "timeout";
  }
  return "error";
}

void write_frame(int fd, std::string_view payload) {
  send_frame(fd, payload, payload.size());
}

void write_frame_truncated(int fd, std::string_view payload,
                           std::size_t bytes) {
  send_frame(fd, payload, std::min(bytes, payload.size()));
}

FrameReadStatus read_frame(int fd, std::string& payload,
                           std::size_t max_bytes, double timeout_seconds) {
  const Clock::time_point deadline =
      timeout_seconds > 0
          ? Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(timeout_seconds))
          : kNoDeadline;
  payload.clear();
  unsigned char header[4];
  const ssize_t h =
      read_all(fd, reinterpret_cast<char*>(header), 4, deadline);
  if (h == kTimedOut) return FrameReadStatus::kTimeout;
  if (h < 0) return FrameReadStatus::kError;
  if (h == 0) return FrameReadStatus::kClosed;
  if (h < 4) return FrameReadStatus::kTruncated;
  const std::size_t n = (static_cast<std::size_t>(header[0]) << 24) |
                        (static_cast<std::size_t>(header[1]) << 16) |
                        (static_cast<std::size_t>(header[2]) << 8) |
                        static_cast<std::size_t>(header[3]);
  if (n > max_bytes) {
    payload = std::to_string(n);
    return FrameReadStatus::kOversize;
  }
  payload.resize(n);
  const ssize_t got = n == 0 ? 0 : read_all(fd, payload.data(), n, deadline);
  if (got == static_cast<ssize_t>(n)) return FrameReadStatus::kOk;
  payload.clear();
  if (got == kTimedOut) return FrameReadStatus::kTimeout;
  return got < 0 ? FrameReadStatus::kError : FrameReadStatus::kTruncated;
}

}  // namespace pil::service

#pragma once
/// \file socket.hpp
/// The service's socket layer, private to src/service: listening, dialing,
/// and the one write loop that every transport path -- request/response
/// frames, the stats endpoint, the client -- goes through. socket.cpp also
/// implements the frame reader and writer that protocol.hpp declares.
///
/// Send policy: a caller hands write_all one buffer holding a whole
/// message (a frame's length prefix and its payload together), so each
/// message leaves in one send. Two sends per message would let Nagle's
/// algorithm hold the second back until the peer's delayed ACK, ~40 ms on
/// loopback TCP in each direction. See docs/SERVICE.md, "Wire protocol".

#include <cstddef>
#include <string>

namespace pil::service::sock {

/// Write all `n` bytes: send() with SIGPIPE suppressed, plain write() for
/// a non-socket fd (pipes in tests); retries EINTR and partial writes.
/// Returns false on error, with errno set.
bool write_all(int fd, const char* data, std::size_t n);

/// Connect a stream socket to `unix_path` when it is non-empty, else to
/// 127.0.0.1:`tcp_port`. Returns the fd, or -1 with errno set when
/// connect(2) fails (callers word that error). Throws pil::Error when no
/// socket can be created or the path does not fit a sockaddr_un.
int dial(const std::string& unix_path, int tcp_port);

/// The listening sockets of one endpoint: a unix-domain path and/or a
/// loopback TCP port. Closes both and unlinks the socket file on
/// destruction.
class Listener {
 public:
  /// Bind and listen on `unix_path` when it is non-empty (a stale socket
  /// file is unlinked first) and on 127.0.0.1:`tcp_port` when it is >= 0
  /// (0 = ephemeral). Throws pil::Error "cannot listen on ...".
  Listener(const std::string& unix_path, int tcp_port, int backlog);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Block until a connection arrives on either socket and accept it.
  /// Returns the fd, or -1 with errno set (after shutdown(), on fd
  /// exhaustion, ...).
  int accept() const;
  /// Wake a blocked accept() from another thread; it and every later
  /// call return -1. Join the accepting thread before destroying this.
  void shutdown() const;
  /// The bound TCP port (resolves port 0), or -1 without a TCP socket.
  int tcp_port() const { return tcp_port_; }

 private:
  void release();  ///< close both sockets, unlink the socket file

  std::string unix_path_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
};

}  // namespace pil::service::sock

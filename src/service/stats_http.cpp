#include "pil/service/stats_http.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>

#include "pil/util/error.hpp"
#include "socket.hpp"

namespace pil::service {

namespace {

void set_io_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
  }
  return "OK";
}

/// Read until the end of the request head ("\r\n\r\n") or the cap; the
/// request line is all this server ever looks at.
std::string read_request_head(int fd) {
  std::string head;
  char buf[1024];
  while (head.size() < 16 * 1024) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    head.append(buf, static_cast<std::size_t>(r));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos)
      break;
  }
  return head;
}

void write_response(int fd, const HttpContent& content) {
  const std::string response =
      "HTTP/1.0 " + std::to_string(content.status) + " " +
      status_text(content.status) + "\r\nContent-Type: " +
      content.content_type +
      "\r\nContent-Length: " + std::to_string(content.body.size()) +
      "\r\nConnection: close\r\n\r\n" + content.body;
  sock::write_all(fd, response.data(), response.size());
}

}  // namespace

struct StatsHttpServer::Impl {
  Config config;
  HttpHandler handler;
  std::unique_ptr<sock::Listener> listener;
  bool started = false;
  std::thread acceptor;

  void serve_one(int fd) {
    set_io_timeout(fd, 5.0);
    const std::string head = read_request_head(fd);
    // Request line: METHOD SP PATH SP VERSION. Anything else is a 400.
    const std::size_t sp1 = head.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : head.find(' ', sp1 + 1);
    HttpContent content;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      content.status = 400;
      content.body = "malformed request\n";
    } else if (head.substr(0, sp1) != "GET") {
      content.status = 405;
      content.body = "GET only\n";
    } else {
      std::string path = head.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t q = path.find('?');  // query strings are ignored
      if (q != std::string::npos) path.resize(q);
      try {
        content = handler(path);
      } catch (const std::exception& e) {
        content = HttpContent{};
        content.status = 500;
        content.body = std::string(e.what()) + "\n";
      }
    }
    write_response(fd, content);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }

  /// Sequential accept: one scrape at a time. Scrapers poll at seconds
  /// granularity and handlers only snapshot counters, so a connection
  /// backlog here would mean something much worse is already wrong.
  /// Returns once stop() shuts the listener down.
  void accept_loop() {
    while (true) {
      const int fd = listener->accept();
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listener shut down
      }
      serve_one(fd);
    }
  }
};

StatsHttpServer::StatsHttpServer(const Config& config, HttpHandler handler)
    : impl_(new Impl) {
  PIL_REQUIRE(config.tcp_port >= 0 || !config.unix_socket.empty(),
              "stats endpoint needs a tcp port or a unix socket path");
  PIL_REQUIRE(handler != nullptr, "stats endpoint needs a handler");
  impl_->config = config;
  impl_->handler = std::move(handler);
}

StatsHttpServer::~StatsHttpServer() { stop(); }

void StatsHttpServer::start() {
  Impl& im = *impl_;
  PIL_REQUIRE(!im.started, "stats endpoint already started");
  im.listener = std::make_unique<sock::Listener>(im.config.unix_socket,
                                                 im.config.tcp_port, 16);
  im.started = true;
  im.acceptor = std::thread([&im] { im.accept_loop(); });
}

void StatsHttpServer::stop() {
  Impl& im = *impl_;
  if (im.listener == nullptr) return;  // never started, or stopped already
  im.listener->shutdown();
  if (im.acceptor.joinable()) im.acceptor.join();
  im.listener.reset();
}

int StatsHttpServer::tcp_port() const {
  return impl_->listener != nullptr ? impl_->listener->tcp_port() : -1;
}

std::string http_get(const std::string& path, int port,
                     const std::string& unix_socket, int* status,
                     double timeout_seconds) {
  PIL_REQUIRE(port >= 0 || !unix_socket.empty(),
              "http_get: give a port or a unix socket");
  const int fd = sock::dial(unix_socket, port);
  if (fd < 0)
    throw Error("cannot connect to " +
                (unix_socket.empty() ? "127.0.0.1:" + std::to_string(port)
                                     : unix_socket) +
                ": " + std::strerror(errno));
  set_io_timeout(fd, timeout_seconds);

  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  if (!sock::write_all(fd, request.data(), request.size())) {
    ::close(fd);
    throw Error("http_get: request write failed");
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      ::close(fd);
      throw Error("http_get: read failed (timeout?)");
    }
    if (r == 0) break;
    raw.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  // "HTTP/1.x NNN ...\r\n...\r\n\r\n<body>"
  PIL_REQUIRE(raw.compare(0, 5, "HTTP/") == 0,
              "http_get: not an HTTP response");
  const std::size_t sp = raw.find(' ');
  PIL_REQUIRE(sp != std::string::npos && raw.size() > sp + 3,
              "http_get: malformed status line");
  if (status != nullptr) *status = std::stoi(raw.substr(sp + 1, 3));
  std::size_t body = raw.find("\r\n\r\n");
  std::size_t skip = 4;
  if (body == std::string::npos) {
    body = raw.find("\n\n");
    skip = 2;
  }
  PIL_REQUIRE(body != std::string::npos, "http_get: no header terminator");
  return raw.substr(body + skip);
}

}  // namespace pil::service

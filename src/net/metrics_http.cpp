#include "net/metrics_http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/json_lite.h"
#include "util/ensure.h"

namespace cbc::net {

namespace {

/// Scrapes are served on loopback only.
constexpr std::uint32_t kBindAddr = 0x7F000001;  // 127.0.0.1, host order
/// A request whose headers exceed this is dropped unanswered.
constexpr std::size_t kMaxRequestBytes = 8 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ensure(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
         "MetricsHttpServer: fcntl(O_NONBLOCK) failed");
}

/// Blocking best-effort write of the whole response. Responses are a few
/// KB against an empty socket buffer, so in practice one write; a stuck
/// scraper is cut off rather than waited on.
void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;  // peer gone or buffer full on a nonblocking fd: give up
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Path component of the request line ("GET /metrics.json HTTP/1.1" ->
/// "/metrics.json"); "/" when the line does not parse as a request.
std::string request_path(const std::string& request) {
  const std::size_t method_end = request.find(' ');
  if (method_end == std::string::npos) {
    return "/";
  }
  const std::size_t path_start = method_end + 1;
  const std::size_t path_end = request.find_first_of(" \r\n", path_start);
  if (path_end == std::string::npos || path_end == path_start) {
    return "/";
  }
  return request.substr(path_start, path_end - path_start);
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(EventLoop& loop,
                                     obs::MetricsRegistry& registry,
                                     std::uint16_t port)
    : loop_(loop), registry_(registry) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ensure(listen_fd_ >= 0, "MetricsHttpServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(kBindAddr);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InvalidArgument("MetricsHttpServer: bind/listen failed: " +
                          std::string(std::strerror(saved)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ensure(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                       &bound_len) == 0,
         "MetricsHttpServer: getsockname failed");
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);
  loop_.add_fd(listen_fd_, [this] {
    loop_.assert_in_loop();  // fd handlers always run on the loop thread
    on_accept();
  });
}

MetricsHttpServer::~MetricsHttpServer() {
  loop_.assert_in_loop();  // dtor contract: loop stopped or loop thread
  for (std::size_t i = connections_.size(); i-- > 0;) {
    close_connection(i);
  }
  if (listen_fd_ >= 0) {
    if (loop_.running() && loop_.in_loop_thread()) {
      loop_.remove_fd(listen_fd_);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::on_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      ensure(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
                 errno == ECONNABORTED,
             "MetricsHttpServer: accept failed");
      return;
    }
    set_nonblocking(fd);
    connections_.push_back(Connection{fd, {}});
    loop_.add_fd(fd, [this, fd] {
      loop_.assert_in_loop();
      // Re-locate by fd: earlier closes shift indices.
      for (std::size_t i = 0; i < connections_.size(); ++i) {
        if (connections_[i].fd == fd) {
          on_readable(i);
          return;
        }
      }
    });
  }
}

void MetricsHttpServer::on_readable(std::size_t index) {
  Connection& conn = connections_[index];
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_connection(index);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      close_connection(index);
      return;
    }
    conn.request.append(buf, static_cast<std::size_t>(n));
    if (conn.request.size() > kMaxRequestBytes) {
      close_connection(index);
      return;
    }
    // End of request headers; GETs carry no body worth waiting for.
    if (conn.request.find("\r\n\r\n") != std::string::npos ||
        conn.request.find("\n\n") != std::string::npos) {
      respond_and_close(index);
      return;
    }
  }
}

void MetricsHttpServer::respond_and_close(std::size_t index) {
  const std::string path = request_path(connections_[index].request);
  std::string body;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (path == "/healthz") {
    body = "ok\n";
    content_type = "text/plain; charset=utf-8";
  } else if (path == "/metrics.json") {
    obs::JsonObject object;
    for (const auto& [name, value] : registry_.snapshot()) {
      object.emplace(name, obs::JsonValue(value));
    }
    body = obs::JsonValue(std::move(object)).dump();
    content_type = "application/json";
  } else {
    body = registry_.render_prometheus();
  }
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: " +
      content_type +
      "\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n";
  response += body;
  write_all(connections_[index].fd, response);
  close_connection(index);
}

void MetricsHttpServer::close_connection(std::size_t index) {
  Connection& conn = connections_[index];
  if (conn.fd >= 0) {
    if (loop_.running() && loop_.in_loop_thread()) {
      loop_.remove_fd(conn.fd);
    }
    ::close(conn.fd);
  }
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
}

}  // namespace cbc::net

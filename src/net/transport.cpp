#include "net/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <signal.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace tmemo::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Sets O_NONBLOCK; false when fcntl fails.
bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags == -1) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != -1;
}

/// Sets TCP_NODELAY; false when setsockopt fails. Every fabric message is
/// one small frame answered by the peer, so Nagle's algorithm plus the
/// peer's delayed ACK would stall each exchange.
bool set_nodelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0;
}

/// Closes an fd, retrying EINTR; close failure past EINTR is unrecoverable
/// and deliberately ignored (the fd is gone either way).
void close_fd(int fd) {
  while (::close(fd) != 0 && errno == EINTR) {
  }
}

struct ResolvedAddrs {
  addrinfo* head = nullptr;
  ~ResolvedAddrs() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

/// getaddrinfo for host:port; returns empty error on success.
std::string resolve(const HostPort& at, bool passive, ResolvedAddrs& out) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string port = std::to_string(at.port);
  const int rc =
      ::getaddrinfo(at.host.c_str(), port.c_str(), &hints, &out.head);
  if (rc != 0) {
    return "cannot resolve " + at.host + ":" + port + ": " +
           ::gai_strerror(rc);
  }
  return std::string();
}

} // namespace

std::optional<HostPort> parse_host_port(std::string_view text,
                                        bool allow_ephemeral) {
  if (text.empty()) return std::nullopt;
  std::string_view host;
  std::string_view port_text;
  if (text.front() == '[') {
    // Bracketed IPv6 literal: "[::1]:7777".
    const std::size_t close = text.find(']');
    if (close == std::string_view::npos || close + 1 >= text.size() ||
        text[close + 1] != ':') {
      return std::nullopt;
    }
    host = text.substr(1, close - 1);
    port_text = text.substr(close + 2);
  } else {
    const std::size_t colon = text.rfind(':');
    if (colon == std::string_view::npos) return std::nullopt;
    // An unbracketed second colon means a bare IPv6 literal; the port
    // boundary is ambiguous, so require brackets.
    if (text.find(':') != colon) return std::nullopt;
    host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  if (host.empty() || port_text.empty() || port_text.size() > 5) {
    return std::nullopt;
  }
  std::uint32_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (port > 65535 || (port == 0 && !allow_ephemeral)) return std::nullopt;
  HostPort out;
  out.host.assign(host);
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

Listener::~Listener() { close_listener(); }

void Listener::open(const HostPort& at) {
  if (fd_ >= 0) throw std::runtime_error("listener already open");
  ResolvedAddrs addrs;
  const std::string resolve_error = resolve(at, /*passive=*/true, addrs);
  if (!resolve_error.empty()) throw std::runtime_error(resolve_error);

  std::string last_error = "no usable address";
  for (const addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = "socket: " + errno_text();
      continue;
    }
    const int one = 1;
    // Best-effort: a supervisor restart must not wait out TIME_WAIT.
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
      last_error = "setsockopt(SO_REUSEADDR): " + errno_text();
    }
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
      last_error = "bind/listen on " + at.host + ":" +
                   std::to_string(at.port) + ": " + errno_text();
      close_fd(fd);
      continue;
    }
    // Resolve the actually bound port (meaningful for port-0 binds). The
    // union gives getsockname a sockaddr* over sockaddr_storage bytes
    // without pointer punning (lint rule R3); the port is then lifted out
    // with memcpy.
    union {
      sockaddr sa;
      sockaddr_storage storage;
    } bound = {};
    socklen_t bound_len = sizeof bound.storage;
    if (::getsockname(fd, &bound.sa, &bound_len) != 0) {
      last_error = "getsockname: " + errno_text();
      close_fd(fd);
      continue;
    }
    if (bound.storage.ss_family == AF_INET) {
      sockaddr_in v4;
      std::memcpy(&v4, &bound.storage, sizeof v4);
      port_ = ntohs(v4.sin_port);
    } else if (bound.storage.ss_family == AF_INET6) {
      sockaddr_in6 v6;
      std::memcpy(&v6, &bound.storage, sizeof v6);
      port_ = ntohs(v6.sin6_port);
    } else {
      port_ = at.port;
    }
    fd_ = fd;
    return;
  }
  throw std::runtime_error("cannot listen on " + at.host + ":" +
                           std::to_string(at.port) + ": " + last_error);
}

int Listener::accept_one() {
  if (fd_ < 0) return -1;
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (!set_nonblocking(fd) || !set_nodelay(fd)) {
        close_fd(fd);
        return -1;
      }
      return fd;
    }
    if (errno == EINTR) continue;
    // EAGAIN: nothing pending. ECONNABORTED and friends: the peer gave up
    // between SYN and accept — nothing to supervise.
    return -1;
  }
}

void Listener::close_listener() {
  if (fd_ >= 0) {
    close_fd(fd_);
    fd_ = -1;
  }
}

ScopedIgnoreSigpipe::ScopedIgnoreSigpipe() {
  static_assert(sizeof(prev_) >= sizeof(struct sigaction),
                "opaque sigaction storage too small");
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction prev = {};
  if (::sigaction(SIGPIPE, &ignore, &prev) == 0) {
    std::memcpy(prev_, &prev, sizeof prev);
    restore_ = true;
  }
}

ScopedIgnoreSigpipe::~ScopedIgnoreSigpipe() {
  if (restore_) {
    struct sigaction prev = {};
    std::memcpy(&prev, prev_, sizeof prev);
    // Restore failure is unrecoverable and deliberately ignored: SIGPIPE
    // stays ignored, which is the safe direction for fabric code.
    (void)::sigaction(SIGPIPE, &prev, nullptr);
  }
}

int connect_to(const HostPort& to, int timeout_ms, std::string& error) {
  ResolvedAddrs addrs;
  error = resolve(to, /*passive=*/false, addrs);
  if (!error.empty()) return -1;

  error = "no usable address for " + to.host + ":" + std::to_string(to.port);
  for (const addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = "socket: " + errno_text();
      continue;
    }
    // Connect nonblocking so the timeout is enforceable, then restore
    // blocking mode for the workerd's simple frame loop.
    if (!set_nonblocking(fd)) {
      error = "fcntl(O_NONBLOCK): " + errno_text();
      close_fd(fd);
      continue;
    }
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
      error = "connect " + to.host + ":" + std::to_string(to.port) + ": " +
              errno_text();
      close_fd(fd);
      continue;
    }
    if (rc != 0) {
      // In progress: wait for writability, then read the final verdict.
      pollfd pfd{fd, POLLOUT, 0};
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) {
        error = "connect " + to.host + ":" + std::to_string(to.port) +
                (rc == 0 ? ": timed out" : ": " + errno_text());
        close_fd(fd);
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
          so_error != 0) {
        error = "connect " + to.host + ":" + std::to_string(to.port) + ": " +
                std::strerror(so_error != 0 ? so_error : errno);
        close_fd(fd);
        continue;
      }
    }
    // Back to blocking mode for the worker's sequential frame loop.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags == -1 ||
        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == -1) {
      error = "fcntl(restore blocking): " + errno_text();
      close_fd(fd);
      continue;
    }
    if (!set_nodelay(fd)) {
      error = "setsockopt(TCP_NODELAY): " + errno_text();
      close_fd(fd);
      continue;
    }
    error.clear();
    return fd;
  }
  return -1;
}

} // namespace tmemo::net

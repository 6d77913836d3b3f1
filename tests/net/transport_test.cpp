// Transport tests for the distributed campaign fabric (net/transport.hpp,
// docs/DISTRIBUTED.md): HOST:PORT parsing with its ephemeral-port gate, the
// nonblocking Listener lifecycle on an OS-chosen loopback port, a real
// connect/accept/frame round-trip, and connect-failure diagnostics.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

#include "net/frame.hpp"

namespace tmemo::net {
namespace {

// -- parse_host_port ----------------------------------------------------------

TEST(ParseHostPort, AcceptsIpv4HostnameAndBracketedIpv6) {
  const auto v4 = parse_host_port("127.0.0.1:7777");
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(v4->host, "127.0.0.1");
  EXPECT_EQ(v4->port, 7777);

  const auto name = parse_host_port("localhost:1");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->host, "localhost");
  EXPECT_EQ(name->port, 1);

  const auto v6 = parse_host_port("[::1]:65535");
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->host, "::1");
  EXPECT_EQ(v6->port, 65535);
}

TEST(ParseHostPort, GatesPortZeroBehindAllowEphemeral) {
  // An operator-facing CLI wants an explicit port; tests and benches bind
  // port 0 for an OS-chosen one.
  EXPECT_FALSE(parse_host_port("127.0.0.1:0").has_value());
  const auto eph = parse_host_port("127.0.0.1:0", /*allow_ephemeral=*/true);
  ASSERT_TRUE(eph.has_value());
  EXPECT_EQ(eph->port, 0);
}

TEST(ParseHostPort, RejectsMalformedEndpoints) {
  for (const char* bad :
       {"", "127.0.0.1", ":7777", "127.0.0.1:", "127.0.0.1:x",
        "127.0.0.1:12x", "127.0.0.1:-1", "127.0.0.1:65536",
        "127.0.0.1:999999999999", "[::1]", "[::1:7777", "[]:7777",
        "host:1:2:3"}) {
    EXPECT_FALSE(parse_host_port(bad).has_value()) << "input: " << bad;
  }
}

// -- Listener + connect_to ----------------------------------------------------

TEST(Listener, BindsAnEphemeralPortAndReportsIt) {
  Listener listener;
  listener.open({"127.0.0.1", 0});
  EXPECT_TRUE(listener.is_open());
  EXPECT_GE(listener.fd(), 0);
  EXPECT_NE(listener.bound_port(), 0);
  listener.close_listener();
  EXPECT_FALSE(listener.is_open());
}

TEST(Listener, AcceptOneReturnsMinusOneWhenNothingIsPending) {
  Listener listener;
  listener.open({"127.0.0.1", 0});
  EXPECT_EQ(listener.accept_one(), -1);
}

/// Waits for POLLIN on a nonblocking fd; the accepted socket needs it
/// before the peer's bytes are readable.
bool wait_readable(int fd, int timeout_ms = 5000) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  return ::poll(&p, 1, timeout_ms) == 1;
}

TEST(Listener, ConnectAcceptAndFrameRoundTrip) {
  Listener listener;
  listener.open({"127.0.0.1", 0});

  std::string error;
  const int client =
      connect_to({"127.0.0.1", listener.bound_port()}, 5000, error);
  ASSERT_GE(client, 0) << error;

  ASSERT_TRUE(wait_readable(listener.fd()));
  const int accepted = listener.accept_one();
  ASSERT_GE(accepted, 0);

  // client (blocking) -> accepted (nonblocking): reassemble via FrameBuffer
  // exactly like the supervisor's poll() loop does.
  ASSERT_TRUE(write_frame(client, "over the wire"));
  FrameBuffer frames;
  std::string payload;
  FrameBuffer::Next verdict = FrameBuffer::Next::kNeedMore;
  while (verdict == FrameBuffer::Next::kNeedMore) {
    ASSERT_TRUE(wait_readable(accepted));
    char buf[256];
    const ssize_t n = ::read(accepted, buf, sizeof buf);
    ASSERT_GT(n, 0);
    frames.append(buf, static_cast<std::size_t>(n));
    verdict = frames.next(payload);
  }
  ASSERT_EQ(verdict, FrameBuffer::Next::kFrame);
  EXPECT_EQ(payload, "over the wire");

  // accepted -> client: the supervisor writes frames back on the same fd.
  ASSERT_TRUE(write_frame(accepted, "and back"));
  ASSERT_TRUE(read_frame(client, payload));
  EXPECT_EQ(payload, "and back");

  ::close(client);
  ::close(accepted);
}

TEST(Listener, BothEndsDisableNagle) {
  // Every fabric exchange is one small frame and its reply; without
  // TCP_NODELAY, Nagle's algorithm and the peer's delayed ACK stall each
  // one. Both the accepted and the connected end must carry the option.
  Listener listener;
  listener.open({"127.0.0.1", 0});
  std::string error;
  const int client =
      connect_to({"127.0.0.1", listener.bound_port()}, 5000, error);
  ASSERT_GE(client, 0) << error;
  ASSERT_TRUE(wait_readable(listener.fd()));
  const int accepted = listener.accept_one();
  ASSERT_GE(accepted, 0);

  for (const int fd : {client, accepted}) {
    int nodelay = 0;
    socklen_t len = sizeof nodelay;
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1);
  }
  ::close(client);
  ::close(accepted);
}

TEST(Listener, AcceptsMultipleConnections) {
  Listener listener;
  listener.open({"127.0.0.1", 0});
  std::string error;
  const int a = connect_to({"127.0.0.1", listener.bound_port()}, 5000, error);
  ASSERT_GE(a, 0) << error;
  const int b = connect_to({"127.0.0.1", listener.bound_port()}, 5000, error);
  ASSERT_GE(b, 0) << error;

  int accepted = 0;
  while (accepted < 2 && wait_readable(listener.fd())) {
    const int fd = listener.accept_one();
    if (fd >= 0) {
      ++accepted;
      ::close(fd);
    }
  }
  EXPECT_EQ(accepted, 2);
  ::close(a);
  ::close(b);
}

TEST(ConnectTo, DeadPortFailsWithDiagnostic) {
  // Bind a port, then close the listener: nothing listens there, so the
  // connect is refused and the error names the endpoint.
  Listener listener;
  listener.open({"127.0.0.1", 0});
  const std::uint16_t port = listener.bound_port();
  listener.close_listener();

  std::string error;
  const int fd = connect_to({"127.0.0.1", port}, 2000, error);
  EXPECT_EQ(fd, -1);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("127.0.0.1"), std::string::npos) << error;
}

TEST(ConnectTo, UnresolvableHostFailsWithDiagnostic) {
  std::string error;
  const int fd =
      connect_to({"no-such-host.tmemo.invalid", 7777}, 2000, error);
  EXPECT_EQ(fd, -1);
  EXPECT_FALSE(error.empty());
}

TEST(Listener, OpenOnAnInUsePortThrows) {
  Listener first;
  first.open({"127.0.0.1", 0});
  Listener second;
  EXPECT_THROW(second.open({"127.0.0.1", first.bound_port()}),
               std::runtime_error);
}

} // namespace
} // namespace tmemo::net

// Bad fixture for the R10 (syscall-discipline) socket extension: the rule
// engages on src/net/ paths and covers the TCP fabric's syscalls. Expected:
// 10 findings, 1 suppressed.
#include <cerrno>

extern "C" {
int socket(int, int, int);
int listen(int, int);
int accept(int, void*, unsigned*);
int connect(int, const void*, unsigned);
long send(int, const void*, unsigned long, int);
long recv(int, void*, unsigned long, int);
int setsockopt(int, int, int, const void*, unsigned);
}

namespace fixture {

// Discarded ::listen result: 1 finding.
void bad_listen(int fd) {
  ::listen(fd, 16);
}

// ::connect checked but the function never consults EINTR: 1 finding.
int bad_connect(int fd, const void* addr, unsigned len) {
  const int rc = ::connect(fd, addr, len);
  return rc == 0 ? fd : -1;
}

// ::accept checked but no EINTR retry: 1 finding.
int bad_accept(int fd) {
  const int peer = ::accept(fd, nullptr, nullptr);
  return peer;
}

// Discarded ::recv result, and no EINTR consultation: 2 findings.
void bad_recv(int fd, char* buf, unsigned long n) {
  ::recv(fd, buf, n, 0);
}

// Checked result, EINTR retry loop: clean.
long good_send(int fd, const char* buf, unsigned long n) {
  long rc = -1;
  do {
    rc = ::send(fd, buf, n, 0);
  } while (rc == -1 && errno == EINTR);
  return rc;
}

// Checked, not interruptible: clean.
int good_socket() {
  const int fd = ::socket(2, 1, 0);
  return fd;
}

// Discarded ::setsockopt, suppressed on the line: 1 suppressed.
void suppressed_setsockopt(int fd, int one) {
  ::setsockopt(fd, 1, 2, &one, sizeof one);  // tmemo-lint: allow(syscall-discipline)
}

} // namespace fixture

// -- Reconnect-fabric extensions (PR 9) --------------------------------------

extern "C" {
int poll(void*, unsigned long, int);
int getsockopt(int, int, int, void*, unsigned*);
int shutdown(int, int);
}

namespace fixture {

// Discarded ::poll result, and poll is interruptible with no EINTR
// consultation in scope: 2 findings.
void bad_poll(void* pfd) {
  ::poll(pfd, 1, 100);
}

// Discarded ::getsockopt result (the nonblocking-connect SO_ERROR probe
// must be checked or a failed dial reads as a success): 1 finding.
void bad_getsockopt(int fd, int* so_error, unsigned* len) {
  ::getsockopt(fd, 1, 4, so_error, len);
}

// Discarded ::shutdown result: 1 finding.
void bad_shutdown(int fd) {
  ::shutdown(fd, 2);
}

} // namespace fixture

// -- Forked-worker socketpair -------------------------------------------------

extern "C" {
int socketpair(int, int, int, int*);
}

namespace fixture {

// Discarded ::socketpair result (a failed pair leaves both fds at -1 and
// the fork hands the worker nothing to serve): 1 finding.
void bad_socketpair(int* sv) {
  ::socketpair(1, 1, 0, sv);
}

} // namespace fixture

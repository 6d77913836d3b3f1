#include "net/workerd.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "inject/fault_config.hpp"
#include "net/frame.hpp"
#include "sim/worker_proc.hpp"

namespace tmemo::net {

namespace {

/// Re-dial backoff ceiling: min(base << k, this).
constexpr int kMaxBackoffMs = 5000;

/// Closes the connection on scope exit (every return path below).
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

 private:
  int fd_;
};

WorkerdOutcome fail(const std::string& why) {
  WorkerdOutcome out;
  out.error = why;
  return out;
}

bool drain_requested(const WorkerdOptions& options) {
  return options.drain_flag != nullptr && *options.drain_flag != 0;
}

/// Drain-aware sleep for the re-dial backoff: naps in kDrainPollMs chunks
/// so a SIGTERM during backoff ends the process promptly.
/// Returns false when a drain request cut the sleep short.
bool backoff_sleep(int total_ms, const WorkerdOptions& options) {
  int slept = 0;
  while (slept < total_ms) {
    if (drain_requested(options)) return false;
    const int nap = std::min(kDrainPollMs, total_ms - slept);
    std::this_thread::sleep_for(std::chrono::milliseconds(nap));
    slept += nap;
  }
  return !drain_requested(options);
}

/// Reads the registration ack under a deadline. A dead supervisor whose
/// listen backlog still accepts TCP connections (the OS completes the
/// three-way handshake before anyone calls accept) would otherwise hang
/// this worker forever on a reply that never comes; a silent supervisor
/// counts as a failed dial and feeds the reconnect ladder instead.
/// Drain-aware like the job loop's idle wait.
bool read_ack_frame(int fd, std::string& payload, int timeout_ms,
                    const WorkerdOptions& options) {
  int waited = 0;
  while (waited < timeout_ms) {
    if (drain_requested(options)) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int nap = std::min(kDrainPollMs, timeout_ms - waited);
    const int rc = ::poll(&pfd, 1, nap);
    if (rc < 0) {
      if (errno == EINTR) continue; // signal landed; loop re-checks drain
      return false;
    }
    if (rc == 0) {
      waited += nap;
      continue;
    }
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return false;
    return read_frame(fd, payload, kMaxHandshakeFrameBytes);
  }
  return false;
}

} // namespace

WorkerdOutcome run_workerd(SweepSpec spec, const WorkerdOptions& options) {
  // A supervisor dying mid-write_frame must surface as EPIPE on the
  // socket (handled as "connection lost"), not kill this process.
  const ScopedIgnoreSigpipe sigpipe_guard;

  // Expand before connecting: the job count rides in the HelloFrame, and a
  // spec the supervisor would reject is cheaper to discover offline.
  // Metrics/timeline do not change the grid shape, so this count survives
  // the post-ack re-expansion below.
  std::vector<CampaignJob> jobs;
  try {
    jobs = CampaignEngine::expand(spec);
  } catch (const std::exception& e) {
    return fail(std::string("cannot expand campaign grid: ") + e.what());
  }

  // Private workload set, built once before the first dial — exactly like
  // a forked worker, and early enough that a slow setup cannot eat into
  // the supervisor's no-heartbeat deadline for the first dispatched job.
  WorkerWorkloads workloads = build_worker_workloads(spec);

  CampaignJournalWriter shard;
  WorkerdOutcome out;
  std::string error;
  int redials_left = options.reconnect_attempts;
  int dial_failures = 0; // consecutive, drives the backoff exponent
  bool registered_once = false;

  for (;;) {
    std::string connect_error;
    const int fd = connect_to(options.connect, options.connect_timeout_ms,
                              connect_error);
    if (fd >= 0) {
      const FdGuard guard(fd);

      // Register: one HelloFrame out, one HelloAckFrame back. Until the
      // ack arrives the supervisor is as untrusted as we are to it, so
      // the reply is capped at the handshake ceiling too. The handshake
      // itself is never fault-injected: an unregistered peer is already
      // covered by the supervisor's handshake deadline.
      HelloFrame hello;
      hello.capabilities = kCapMetrics | kCapTimeline;
      hello.campaign_digest = campaign_wire_digest(spec);
      hello.job_count = static_cast<std::uint64_t>(jobs.size());
      std::string payload;
      bool handshake_ok = false;
      if (write_frame(fd, encode_hello(hello)) &&
          read_ack_frame(fd, payload, options.connect_timeout_ms, options)) {
        HelloAckFrame ack;
        if (!decode_hello_ack(payload, ack)) {
          return fail("malformed registration reply "
                      "(not a tmemo supervisor?)");
        }
        if (ack.accepted == 0) {
          // A rejection is permanent: re-dialing the same supervisor with
          // the same digest can only be rejected again.
          return fail("registration rejected: " +
                      std::string(hello_reject_name(
                          static_cast<HelloReject>(ack.reason))));
        }
        if (ack.max_attempts < 1) {
          return fail("registration reply carries an invalid retry budget");
        }
        handshake_ok = true;

        const int max_attempts = static_cast<int>(ack.max_attempts);
        // The ack pins the telemetry switches a forked worker would have
        // inherited through fork(); re-expand so every job's RunSpec
        // matches the supervisor's expansion bit-for-bit. Re-done per
        // session: a restarted supervisor may negotiate differently.
        spec.metrics = (ack.capabilities & kCapMetrics) != 0;
        spec.timeline = (ack.capabilities & kCapTimeline) != 0;
        jobs = CampaignEngine::expand(spec);

        if (!options.journal_path.empty() && !shard.is_open()) {
          try {
            shard.configure(options.checkpoint_every, options.inject_fs);
            shard.open(options.journal_path, campaign_fingerprint(spec));
          } catch (const std::exception& e) {
            WorkerdOutcome bad = fail(
                std::string("cannot open journal shard: ") + e.what());
            bad.artifact_error = true;
            return bad;
          }
        }

        if (registered_once) ++out.reconnects;
        registered_once = true;
        // A successful registration refills the re-dial budget and resets
        // the backoff ramp: the fabric is evidently healthy again.
        redials_left = options.reconnect_attempts;
        dial_failures = 0;

        FrameWriteShim shim;
        if (options.inject_net && options.inject_net->enabled()) {
          // Channel salts live in a range disjoint from the supervisor's
          // slot ids, so a shared --inject-net seed still yields
          // independent schedules on the two ends of one connection.
          shim.arm(*options.inject_net,
                   (1ull << 32) + out.reconnects);
        }

        const SessionEnd end = serve_jobs(
            fd, shim, spec, jobs, max_attempts, options.inject_crash,
            workloads, &shard, options.drain_flag, out.jobs_done, error);
        if (end == SessionEnd::kComplete) {
          out.ok = true;
          return out;
        }
        if (end == SessionEnd::kDrained) {
          out.ok = true;
          out.drained = true;
          return out;
        }
        if (end == SessionEnd::kArtifact) {
          out.artifact_error = true;
          out.error = error;
          return out;
        }
        // kLost: fall through to the retry ladder.
      }
      if (!handshake_ok) {
        error = "connection lost while registering";
      }
    } else {
      error = "cannot reach supervisor: " + connect_error;
    }

    if (drain_requested(options)) {
      out.ok = true;
      out.drained = true;
      return out;
    }
    if (redials_left <= 0) {
      out.connection_lost = registered_once;
      out.error = error;
      return out;
    }
    --redials_left;

    // Jittered exponential backoff, deterministic per (seed, attempt) so
    // chaos runs replay (lint R8): attempt k sleeps a draw from [b/2, b]
    // with b = min(base << k, kMaxBackoffMs).
    const long long base = std::max(1, options.reconnect_backoff_ms);
    const long long grown = base << std::min(dial_failures, 12);
    const int ceiling = static_cast<int>(
        std::min<long long>(kMaxBackoffMs, grown));
    const std::uint64_t draw = inject::derive_fault_seed(
        options.reconnect_seed,
        0x7265636f6e6e00ull + static_cast<std::uint64_t>(dial_failures));
    const int sleep_ms =
        ceiling / 2 + static_cast<int>(draw % (ceiling / 2 + 1));
    ++dial_failures;
    if (!backoff_sleep(sleep_ms, options)) {
      out.ok = true;
      out.drained = true;
      return out;
    }
  }
}

} // namespace tmemo::net

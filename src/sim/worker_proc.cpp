#include "sim/worker_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/pod_io.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "telemetry/collector.hpp"

namespace tmemo {

namespace {

/// Why a remote worker is gone when its connection simply ended.
constexpr const char* kConnectionLost =
    "remote worker disconnected (connection lost)";

/// Backoff ceiling between a crash and the replacement fork.
constexpr int kMaxRespawnBackoffMs = 200;

/// A connecting peer has this long to deliver its HelloFrame before the
/// half-open connection is dropped (a port scanner or wedged peer must not
/// occupy the supervisor forever).
constexpr int kHandshakeTimeoutMs = 5000;

/// Marks `r` timed out against `budget_ms`: the result is discarded and
/// the error says which budget it blew and how ("timeout" for the verdict
/// on a finished run, "hard timeout (...)" for an enforced one).
void mark_timed_out(JobResult& r, double budget_ms, std::string_view how) {
  r.ok = false;
  r.timed_out = true;
  r.report = KernelRunReport{};
  r.error =
      "job exceeded " + fmt_double(budget_ms) + " ms " + std::string(how);
}

// ---------------------------------------------------------------------------
// Worker side: the one job loop, shared by forked workers and tmemo_workerd.

/// Dies the way the injection plan asks. Signal handlers installed by the
/// host (sanitizers, gtest death tests) are reset first so the death is
/// reported to waitpid as a real signal, not converted to a clean exit.
[[noreturn]] void crash_now(int sig) {
  if (sig == inject::kWorkerExitsCleanly) _exit(0);
  std::signal(sig, SIG_DFL);
  ::raise(sig);
  _exit(111); // only reachable if the signal was blocked
}

bool drain_requested(const volatile std::sig_atomic_t* drain_flag) {
  return drain_flag != nullptr && *drain_flag != 0;
}

enum class WaitVerdict { kReadable, kDrain, kLost };

/// Waits until the supervisor has bytes for us, a drain is requested, or
/// the peer is gone. Without a drain flag the wait blocks outright; with
/// one it wakes every kDrainPollMs, and a SIGTERM handler installed without
/// SA_RESTART interrupts poll() so a drain is seen promptly even idle.
WaitVerdict wait_readable(int fd, const volatile std::sig_atomic_t* drain) {
  const int timeout_ms = drain != nullptr ? kDrainPollMs : -1;
  for (;;) {
    if (drain_requested(drain)) return WaitVerdict::kDrain;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue; // signal landed; loop re-checks drain
      return WaitVerdict::kLost;
    }
    if (rc == 0) continue;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return WaitVerdict::kLost;
    // POLLIN or POLLHUP: let read_frame consume what remains and decide.
    return WaitVerdict::kReadable;
  }
}

/// A forked worker's whole life: serve the one job loop on its end of the
/// socketpair until the supervisor's goodbye. It inherited spec, jobs and
/// the workload factory through fork(), so only (job index, attempt) ever
/// crosses the socket. Every exit is _exit() or a raised signal — a forked
/// gtest/ASan child must never run the parent's atexit machinery.
[[noreturn]] void serve_forked_worker(const ProcessPoolRequest& req, int fd) {
  WorkerWorkloads workloads = build_worker_workloads(*req.spec);
  net::FrameWriteShim shim; // unarmed: local slots are never chaos-injected
  std::uint64_t jobs_done = 0;
  std::string error;
  const SessionEnd end =
      serve_jobs(fd, shim, *req.spec, *req.jobs, req.max_attempts,
                 req.inject_crash, workloads, /*shard=*/nullptr,
                 /*drain_flag=*/nullptr, jobs_done, error);
  // Anything but the goodbye is a broken stream: exit 3 for the
  // supervisor to decode, should it still be there.
  _exit(end == SessionEnd::kComplete ? 0 : 3);
}

// ---------------------------------------------------------------------------
// Supervisor.

/// A queued dispatch: which job, and which attempt number the worker should
/// resume its retry loop at (advanced past the attempts a crash consumed).
struct QueueItem {
  std::size_t job = 0;
  int attempt = 1;
};

/// One worker, forked or remote: the same frames over one nonblocking
/// stream socket either way.
struct WorkerSlot {
  std::uint32_t id = 0; ///< stable slot number (timeline pid)
  pid_t pid = -1;       ///< > 0: a local forked child; -1: a tmemo_workerd
  int fd = -1;          ///< socketpair end or TCP connection (nonblocking)
  net::FrameBuffer frames; ///< unparsed response bytes
  bool live = false;
  bool busy = false;
  std::size_t job = 0;
  int attempt = 0;
  bool heartbeat_seen = false;
  bool timeout_killed = false;
  bool deadline_armed = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point job_start{};
  // Liveness keepalive (remote slots only): when the last well-formed
  // frame arrived, and the one outstanding ping awaiting its pong.
  std::chrono::steady_clock::time_point last_heard{};
  bool ping_outstanding = false;
  std::uint64_t ping_seq = 0;
  std::chrono::steady_clock::time_point pong_deadline{};
  /// Every outgoing frame: pass-through unless the request arms
  /// --inject-net chaos on this (remote) channel.
  net::FrameWriteShim shim;
};

/// A connection that has not yet passed the HelloFrame handshake: fully
/// untrusted, capped at kMaxHandshakeFrameBytes per frame and at
/// kHandshakeTimeoutMs of supervisor patience.
struct PendingConn {
  int fd = -1;
  net::FrameBuffer frames{net::kMaxHandshakeFrameBytes};
  std::chrono::steady_clock::time_point deadline{};
};

class ProcessSupervisor {
 public:
  ProcessSupervisor(const ProcessPoolRequest& req,
                    std::vector<JobResult>& results)
      : req_(req), results_(results),
        local_slots_(static_cast<std::size_t>(std::max(0, req.workers))) {
    for (std::size_t i = 0; i < local_slots_; ++i) {
      slots_.emplace_back().id = static_cast<std::uint32_t>(i);
    }
    if (req_.spec->timeline) {
      timeline_ = std::make_shared<telemetry::Timeline>();
    }
  }

  ProcessPoolOutcome run() {
    // Shared with run_workerd: a write to a just-died worker must
    // surface as EPIPE from write() instead of killing the campaign.
    const net::ScopedIgnoreSigpipe sigpipe;
    for (const std::size_t ji : req_.pending) queue_.push_back({ji, 1});

    while (!queue_.empty() || busy_count() > 0) {
      spawn_needed();
      dispatch_idle();
      if (queue_.empty() && busy_count() == 0) break;
      wait_and_process();
    }
    shutdown();

    ProcessPoolOutcome out;
    out.stats = stats_;
    if (timeline_) {
      for (const WorkerSlot& s : slots_) {
        timeline_->set_process_name(
            s.id, (s.id < local_slots_ ? "worker " : "remote worker ") +
                      std::to_string(s.id));
      }
      out.timeline = std::move(timeline_);
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t busy_count() const {
    std::size_t n = 0;
    for (const WorkerSlot& s : slots_) n += s.live && s.busy ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::size_t live_local_count() const {
    std::size_t n = 0;
    for (const WorkerSlot& s : slots_) n += s.live && s.pid > 0 ? 1 : 0;
    return n;
  }

  void note(const char* name, const WorkerSlot& s,
            const telemetry::TimelineArgs& args) {
    if (!timeline_) return;
    telemetry::record_supervision_event(*timeline_, name, s.id, seq_++,
                                        args);
  }

  /// Keeps live local workers matched to remaining work; a fork after the
  /// initial wave is by definition a respawn and pays the bounded backoff
  /// the crash streak has earned. Remote workers arrive on their own
  /// schedule and are never spawned from here.
  void spawn_needed() {
    const std::size_t want =
        std::min(local_slots_, queue_.size() + busy_count());
    while (live_local_count() < want) {
      WorkerSlot* slot = nullptr;
      for (std::size_t i = 0; i < local_slots_; ++i) {
        if (!slots_[i].live) {
          slot = &slots_[i];
          break;
        }
      }
      if (slot == nullptr) return;
      if (initial_wave_done_ && crash_streak_ > 0) {
        const int shift = std::min(crash_streak_ - 1, 6);
        const int backoff_ms =
            std::min(5 * (1 << shift), kMaxRespawnBackoffMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
      if (!spawn(*slot)) {
        ++spawn_failures_;
        TM_REQUIRE(live_local_count() > 0 || has_remote_capacity() ||
                       spawn_failures_ < 100,
                   "campaign worker pool: cannot fork any worker");
        return; // retry on the next loop iteration
      }
      spawn_failures_ = 0;
    }
    initial_wave_done_ = true;
  }

  /// True when remote workers can still carry the campaign even with zero
  /// live local workers: a listener is accepting, or a remote worker is
  /// already registered.
  [[nodiscard]] bool has_remote_capacity() const {
    if (req_.listener != nullptr && req_.listener->is_open()) return true;
    for (const WorkerSlot& s : slots_) {
      if (s.live && s.pid <= 0) return true;
    }
    return false;
  }

  bool spawn(WorkerSlot& slot) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      close_fd(sv[0]);
      close_fd(sv[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop the supervisor's end and every sibling's connection, or
      // a crashed sibling's EOF would be held open by this process; the
      // listener too, or the port would outlive the supervisor.
      ::close(sv[0]);
      for (const WorkerSlot& other : slots_) {
        if (other.live) ::close(other.fd);
      }
      for (const PendingConn& p : pending_) ::close(p.fd);
      if (req_.listener != nullptr && req_.listener->is_open()) {
        ::close(req_.listener->fd());
      }
      serve_forked_worker(req_, sv[1]); // never returns
    }
    close_fd(sv[1]);
    // The nonblocking flag is load-bearing: drain() reads until EAGAIN, so
    // a silently-blocking socket would hang the whole campaign. Only the
    // supervisor's end: the child's job loop reads blocking.
    const int flags = ::fcntl(sv[0], F_GETFL, 0);
    const int set_rc =
        flags == -1 ? -1 : ::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK);
    TM_REQUIRE(set_rc != -1,
               "campaign worker pool: cannot set O_NONBLOCK on a worker "
               "socket");
    slot.pid = pid;
    slot.fd = sv[0];
    slot.frames = net::FrameBuffer{};
    slot.live = true;
    slot.busy = false;
    slot.heartbeat_seen = false;
    slot.timeout_killed = false;
    slot.deadline_armed = false;
    ++stats_.spawns;
    if (initial_wave_done_) {
      ++stats_.respawns;
      note("worker_respawn", slot,
           {{"pid", static_cast<std::uint64_t>(pid)}});
    } else {
      note("worker_spawn", slot,
           {{"pid", static_cast<std::uint64_t>(pid)}});
    }
    return true;
  }

  void dispatch_idle() {
    for (WorkerSlot& s : slots_) {
      if (queue_.empty()) return;
      if (!s.live || s.busy) continue;
      const QueueItem item = queue_.front();
      queue_.pop_front();
      const std::string msg =
          net::encode_dispatch(static_cast<std::uint64_t>(item.job),
                               static_cast<std::int32_t>(item.attempt));
      s.busy = true;
      s.job = item.job;
      s.attempt = item.attempt;
      s.heartbeat_seen = false;
      s.timeout_killed = false;
      // The hard-timeout deadline arms at the heartbeat, not here: a fresh
      // worker is still building its workload set when the first job frame
      // lands, and setup must not eat the job's budget. The keepalive
      // no-heartbeat deadline (enforce_keepalive) runs from job_start so a
      // dispatch swallowed by a half-open socket is still reclaimed.
      s.deadline_armed = false;
      s.job_start = wall_now();
      if (!s.shim.write(s.fd, msg)) {
        // The worker died between jobs (EPIPE/ECONNRESET). Put the job
        // back and handle the death. Read what it sent first: a draining
        // workerd says goodbye and closes, and its goodbye may be waiting
        // unread behind the reset.
        s.busy = false;
        queue_.push_front(item);
        drain(s);
        if (s.live) lose(s, kConnectionLost);
      }
    }
  }

  void wait_and_process() {
    std::vector<pollfd> fds;
    // Index into slots_ for worker entries; npos markers for the listener
    // and pending-connection entries, resolved by position below.
    std::vector<std::size_t> fd_slot;
    constexpr std::size_t kNotASlot = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].live) continue;
      fds.push_back(pollfd{slots_[i].fd, POLLIN, 0});
      fd_slot.push_back(i);
    }
    const std::size_t worker_entries = fds.size();
    std::size_t listener_entry = kNotASlot;
    if (req_.listener != nullptr && req_.listener->is_open()) {
      listener_entry = fds.size();
      fds.push_back(pollfd{req_.listener->fd(), POLLIN, 0});
      fd_slot.push_back(kNotASlot);
    }
    const std::size_t pending_base = fds.size();
    for (const PendingConn& p : pending_) {
      fds.push_back(pollfd{p.fd, POLLIN, 0});
      fd_slot.push_back(kNotASlot);
    }
    if (fds.empty()) return;

    int timeout_ms = -1;
    const auto consider_deadline =
        [&timeout_ms](std::chrono::steady_clock::time_point deadline,
                      std::chrono::steady_clock::time_point now) {
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                    now)
                  .count();
          const int ms =
              remaining <= 0 ? 0
                             : static_cast<int>(std::min<long long>(
                                   static_cast<long long>(remaining) + 1,
                                   60'000));
          timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
        };
    {
      const auto now = wall_now();
      if (req_.job_timeout_ms > 0.0) {
        for (const WorkerSlot& s : slots_) {
          if (!s.live || !s.busy || !s.deadline_armed || s.timeout_killed) {
            continue;
          }
          consider_deadline(s.deadline, now);
        }
      }
      for (const PendingConn& p : pending_) consider_deadline(p.deadline, now);
      if (req_.keepalive_interval_ms > 0) {
        const auto interval =
            std::chrono::milliseconds(req_.keepalive_interval_ms);
        const auto timeout = std::chrono::milliseconds(
            std::max(1, req_.keepalive_timeout_ms));
        for (const WorkerSlot& s : slots_) {
          if (!s.live || s.pid > 0) continue;
          if (s.busy) {
            if (!s.heartbeat_seen) {
              consider_deadline(s.job_start + interval + timeout, now);
            }
          } else if (s.ping_outstanding) {
            consider_deadline(s.pong_deadline, now);
          } else {
            consider_deadline(s.last_heard + interval, now);
          }
        }
      }
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      TM_REQUIRE(false, "campaign worker pool: poll() failed");
    }

    for (std::size_t k = 0; k < worker_entries; ++k) {
      WorkerSlot& s = slots_[fd_slot[k]];
      if (!s.live) continue; // reaped earlier in this pass
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      drain(s);
    }
    if (listener_entry != kNotASlot &&
        (fds[listener_entry].revents & (POLLIN | POLLERR)) != 0) {
      accept_new_connections();
    }
    for (std::size_t k = pending_base; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Map the poll entry back to the pending connection by fd (the
      // vector may have been reshuffled by earlier handshakes this pass).
      for (std::size_t p = 0; p < pending_.size(); ++p) {
        if (pending_[p].fd == fds[k].fd) {
          drain_pending(p);
          break;
        }
      }
    }
    enforce_handshake_deadlines();
    enforce_deadlines();
    enforce_keepalive();
  }

  void accept_new_connections() {
    if (req_.listener == nullptr) return;
    for (;;) {
      const int fd = req_.listener->accept_one();
      if (fd < 0) return;
      PendingConn conn;
      conn.fd = fd;
      conn.deadline =
          wall_now() + std::chrono::milliseconds(kHandshakeTimeoutMs);
      pending_.push_back(std::move(conn));
    }
  }

  /// Reads whatever the unregistered peer sent; a complete frame must be a
  /// valid HelloFrame or the connection is rejected.
  void drain_pending(std::size_t index) {
    PendingConn& p = pending_[index];
    const bool broken = !read_available(p.fd, p.frames);
    std::string payload;
    const net::FrameBuffer::Next next = p.frames.next(payload);
    if (next == net::FrameBuffer::Next::kFrame) {
      complete_handshake(index, payload);
      return;
    }
    if (next == net::FrameBuffer::Next::kOversize || broken) {
      reject_pending(index); // vanished or sent garbage before registering
    }
  }

  /// Validates a HelloFrame, answers with a HelloAckFrame, and on success
  /// promotes the connection to a socket worker slot.
  void complete_handshake(std::size_t index, const std::string& payload) {
    PendingConn& p = pending_[index];
    net::HelloFrame hello;
    net::HelloReject verdict = net::HelloReject::kAccepted;
    if (!net::decode_hello(payload, hello)) {
      verdict = net::HelloReject::kBadMagic;
    } else if (hello.protocol != net::kProtocolVersion) {
      verdict = net::HelloReject::kProtocolMismatch;
    } else if (hello.campaign_digest != req_.campaign_digest) {
      verdict = net::HelloReject::kCampaignMismatch;
    } else if (hello.job_count !=
               static_cast<std::uint64_t>(req_.jobs->size())) {
      verdict = net::HelloReject::kJobCountMismatch;
    }

    net::HelloAckFrame ack;
    ack.accepted = verdict == net::HelloReject::kAccepted ? 1 : 0;
    ack.reason = static_cast<std::uint32_t>(verdict);
    ack.max_attempts = static_cast<std::int32_t>(req_.max_attempts);
    // Mirror the spec's telemetry switches bit-for-bit (not their OR,
    // which decides whether results carry metrics): the workerd re-derives
    // per-job RunSpecs from these, and a job that collects metrics it
    // shouldn't would leak into the campaign-level merge.
    ack.capabilities =
        static_cast<std::uint16_t>(
            (req_.spec->metrics ? net::kCapMetrics : 0) |
            (req_.spec->timeline ? net::kCapTimeline : 0));
    const bool acked =
        net::write_frame(p.fd, net::encode_hello_ack(ack));

    if (verdict != net::HelloReject::kAccepted || !acked) {
      reject_pending(index);
      return;
    }

    WorkerSlot slot;
    slot.id = static_cast<std::uint32_t>(slots_.size());
    slot.fd = p.fd;
    const std::string pipelined = p.frames.take_buffered();
    slot.frames.append(pipelined.data(), pipelined.size());
    slot.live = true;
    slot.last_heard = wall_now(); // registration counts as liveness
    if (req_.inject_net && req_.inject_net->enabled()) {
      // Chaos starts after registration; the slot id salts this channel's
      // deterministic fault stream.
      slot.shim.arm(*req_.inject_net, slot.id);
    }
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    ++stats_.remote_connects;
    slots_.push_back(std::move(slot));
    note("worker_connect", slots_.back(),
         {{"capabilities", static_cast<std::uint64_t>(hello.capabilities)}});
  }

  /// Drops an unregistered connection (bad Hello, handshake timeout, or the
  /// peer vanished) and counts the reject.
  void reject_pending(std::size_t index) {
    PendingConn& p = pending_[index];
    close_fd(p.fd);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    ++stats_.remote_rejects;
    if (timeline_) {
      const WorkerSlot ghost; // no slot was ever assigned
      note("worker_reject", ghost, {});
    }
  }

  void enforce_handshake_deadlines() {
    const auto now = wall_now();
    for (std::size_t i = pending_.size(); i-- > 0;) {
      if (now >= pending_[i].deadline) reject_pending(i);
    }
  }

  /// Reads everything available from a worker, handles each complete
  /// frame, and treats EOF as the worker's loss.
  void drain(WorkerSlot& s) {
    const bool open = read_available(s.fd, s.frames);
    std::string payload;
    while (s.live) {
      const net::FrameBuffer::Next next = s.frames.next(payload);
      if (next == net::FrameBuffer::Next::kNeedMore) break;
      if (next == net::FrameBuffer::Next::kOversize) {
        protocol_error(s);
        return;
      }
      handle_frame(s, payload);
    }
    if (!open && s.live) lose(s, kConnectionLost);
  }

  void handle_frame(WorkerSlot& s, const std::string& payload) {
    net::EventFrameHeader hdr;
    if (!net::decode_event_header(payload, hdr)) {
      protocol_error(s);
      return;
    }
    // Any well-formed frame proves the connection alive.
    s.last_heard = wall_now();
    switch (hdr.type) {
      case net::kPong:
        // Exactly one probe can be outstanding, so the echoed sequence
        // number must match it; anything else is a corrupted stream.
        if (!s.ping_outstanding || hdr.job != s.ping_seq) {
          protocol_error(s);
          return;
        }
        s.ping_outstanding = false;
        return;
      case net::kGoodbye:
        handle_goodbye(s);
        return;
      case net::kJobStarted:
      case net::kJobDone:
        break;
      default:
        protocol_error(s);
        return;
    }
    if (!s.busy || hdr.job != static_cast<std::uint64_t>(s.job)) {
      protocol_error(s);
      return;
    }
    if (hdr.type == net::kJobStarted) {
      s.heartbeat_seen = true;
      if (req_.job_timeout_ms > 0.0 && !s.timeout_killed) {
        // Re-arm from the job's true start: worker setup (workload
        // construction on first dispatch) does not eat the job's budget.
        s.deadline_armed = true;
        s.deadline = wall_now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             req_.job_timeout_ms));
      }
      return;
    }
    if (s.timeout_killed) {
      // The kill already won: a result that raced the SIGKILL through the
      // socket is discarded, exactly like the thread pool discards a run
      // that finished over budget. The reap will record the timeout.
      return;
    }

    // The digest gate comes before the parser: a flipped digit in an
    // energy column is still valid CSV, so only the body digest can tell a
    // corrupted result from a real one (the chaos injector found exactly
    // this — a one-bit flip in e_base_pj survived parsing and skewed the
    // recomputed saving column).
    if (!net::verify_result_body(payload)) {
      protocol_error(s);
      return;
    }
    std::istringstream in(payload);
    in.ignore(static_cast<std::streamsize>(net::kResultBodyOffset));
    std::string row;
    std::uint8_t has_metrics = 0;
    JobResult res;
    bool parsed = read_sized_string(in, row);
    if (parsed) {
      std::istringstream row_in(row);
      std::vector<std::string> fields;
      parsed = read_csv_record(row_in, fields) &&
               parse_job_result(fields, res) && res.job.index == s.job;
    }
    if (parsed) {
      read_pod(in, has_metrics);
      parsed = in.good();
    }
    if (parsed && has_metrics != 0) {
      parsed = net::unpack_metrics_snapshot(in, res.report.metrics);
    }
    if (!parsed) {
      protocol_error(s);
      return;
    }
    res.job = (*req_.jobs)[s.job];
    // Finished but over budget: the same verdict thread workers apply.
    classify_job_timeout(res, req_.job_timeout_ms);
    finalize(res);
    s.busy = false;
    s.deadline_armed = false;
    crash_streak_ = 0;
  }

  /// A draining workerd (SIGTERM) says goodbye before leaving. The drain
  /// is voluntary, not a crash: if a dispatch raced the goodbye — written
  /// before the worker read it, so the job never ran — the job is requeued
  /// at the SAME attempt, burning no retry budget and counting no crash.
  void handle_goodbye(WorkerSlot& s) {
    ++stats_.remote_drains;
    note("worker_drain", s,
         {{"mid_job", static_cast<std::uint64_t>(s.busy ? 1 : 0)}});
    const bool was_busy = s.busy;
    const QueueItem raced{s.job, s.attempt};
    (void)close_slot(s);
    s.busy = false;
    s.deadline_armed = false;
    if (was_busy) queue_.push_front(raced);
  }

  /// Liveness enforcement for remote workers: ping idle connections, drop
  /// the ones that miss their pong deadline, and reclaim dispatched jobs
  /// whose heartbeat never arrived — the three faces of a half-open
  /// connection. Local workers need none of this (socketpair EOF is
  /// prompt).
  void enforce_keepalive() {
    if (req_.keepalive_interval_ms <= 0) return;
    const auto now = wall_now();
    const auto interval = std::chrono::milliseconds(req_.keepalive_interval_ms);
    const auto timeout =
        std::chrono::milliseconds(std::max(1, req_.keepalive_timeout_ms));
    for (WorkerSlot& s : slots_) {
      if (!s.live || s.pid > 0) continue;
      if (s.busy) {
        // A busy worker cannot pong (the job loop is single-threaded), but
        // a dispatch that was never even acknowledged within the keepalive
        // budget went into a black hole; reclaim the job.
        if (!s.heartbeat_seen && now - s.job_start >= interval + timeout) {
          ++stats_.remote_keepalive_drops;
          disconnect(s, "remote worker never acknowledged the job within "
                        "the liveness deadline (half-open connection)");
        }
        continue;
      }
      if (s.ping_outstanding) {
        if (now >= s.pong_deadline) {
          ++stats_.remote_keepalive_drops;
          disconnect(s, "remote worker missed the liveness deadline "
                        "(half-open connection)");
        }
        continue;
      }
      if (now - s.last_heard >= interval) {
        ++s.ping_seq;
        ++stats_.remote_keepalive_pings;
        if (!s.shim.write(s.fd, net::encode_event(net::kPing, s.ping_seq))) {
          disconnect(s, kConnectionLost);
          continue;
        }
        s.ping_outstanding = true;
        s.pong_deadline = now + timeout;
      }
    }
  }

  /// A worker that breaks the framing contract is as good as crashed: kill
  /// it (local) or drop the connection (remote) and classify the death.
  void protocol_error(WorkerSlot& s) {
    if (s.pid > 0) ::kill(s.pid, SIGKILL);
    lose(s, "remote worker broke the frame protocol; connection dropped");
  }

  /// The one path for a worker gone from its slot: a local child's death
  /// is decoded from its wait status, a remote worker's from `cause`.
  void lose(WorkerSlot& s, const char* cause) {
    if (s.pid > 0) {
      reap(s);
    } else {
      disconnect(s, cause);
    }
  }

  /// Closes a slot's connection; a local child is then waited for, so none
  /// is left unreaped. Returns the child's wait status (0 for a remote
  /// slot).
  int close_slot(WorkerSlot& s) {
    close_fd(s.fd);
    s.fd = -1;
    s.live = false;
    s.ping_outstanding = false;
    s.frames = net::FrameBuffer{};
    int status = 0;
    if (s.pid > 0) {
      while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    return status;
  }

  /// Handles a local worker's death: decode the wait status, then either
  /// record the in-flight job's failure or re-dispatch it under the retry
  /// budget.
  void reap(WorkerSlot& s) {
    const int status = close_slot(s);

    if (!s.busy) {
      // Died between jobs: no job harmed, but the slot still needs a
      // replacement and the event is still a crash.
      ++stats_.crashes;
      ++crash_streak_;
      note("worker_crash", s, {{"status", pack_status(status)}});
      return;
    }
    s.busy = false;
    s.deadline_armed = false;

    JobResult res = in_flight_failure(s);
    if (s.timeout_killed) {
      mark_timed_out(res, req_.job_timeout_ms,
                     "hard timeout (worker SIGKILLed)");
      finalize(res);
      return;
    }

    ++stats_.crashes;
    ++crash_streak_;
    res.error = decode_status(status, s.heartbeat_seen);
    note("worker_crash", s,
         {{"job", static_cast<std::uint64_t>(s.job)},
          {"attempt", static_cast<std::uint64_t>(s.attempt)},
          {"status", pack_status(status)}});
    redispatch_or_finalize(s, res);
  }

  /// Handles a remote worker's loss: the same crash taxonomy as reap(),
  /// minus the waitpid (the process is on another machine; all we know is
  /// the connection state).
  void disconnect(WorkerSlot& s, const char* cause) {
    (void)close_slot(s);
    ++stats_.remote_disconnects;
    note("worker_disconnect", s,
         {{"mid_job", static_cast<std::uint64_t>(s.busy ? 1 : 0)}});

    if (!s.busy) return; // an idle workerd leaving the pool harms nothing
    s.busy = false;
    s.deadline_armed = false;

    JobResult res = in_flight_failure(s);
    ++stats_.crashes;
    res.error = std::string(cause);
    if (!s.heartbeat_seen) res.error += " before acknowledging the job";
    redispatch_or_finalize(s, res);
  }

  /// The failed result of the job `s` was running when its worker went.
  [[nodiscard]] JobResult in_flight_failure(const WorkerSlot& s) const {
    JobResult res;
    res.job = (*req_.jobs)[s.job];
    res.ok = false;
    res.attempts = s.attempt;
    res.wall_ms = wall_elapsed_ms(s.job_start);
    return res;
  }

  /// The crash consumed one attempt; the redispatch resumes after it —
  /// shared tail of reap() and disconnect().
  void redispatch_or_finalize(WorkerSlot& s, const JobResult& res) {
    if (s.attempt < req_.max_attempts) {
      queue_.push_front({s.job, s.attempt + 1});
      ++stats_.redispatches;
      note("job_redispatch", s,
           {{"job", static_cast<std::uint64_t>(s.job)},
            {"attempt", static_cast<std::uint64_t>(s.attempt + 1)}});
    } else {
      finalize(res);
    }
  }

  void enforce_deadlines() {
    if (req_.job_timeout_ms <= 0.0) return;
    const auto now = wall_now();
    for (WorkerSlot& s : slots_) {
      if (!s.live || !s.busy || !s.deadline_armed || s.timeout_killed) {
        continue;
      }
      if (now < s.deadline) continue;
      s.timeout_killed = true;
      ++stats_.timeout_kills;
      note("job_timeout_kill", s,
           {{"job", static_cast<std::uint64_t>(s.job)},
            {"attempt", static_cast<std::uint64_t>(s.attempt)}});
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        // EOF on the socket follows; reap() records the timeout.
      } else {
        // No SIGKILL across machines: dropping the connection is the whole
        // enforcement arsenal. Record the timeout verdict directly.
        JobResult res = in_flight_failure(s);
        mark_timed_out(res, req_.job_timeout_ms,
                       "hard timeout (remote worker disconnected)");
        (void)close_slot(s);
        s.busy = false;
        finalize(res);
      }
    }
  }

  void finalize(const JobResult& res) {
    results_[res.job.index] = res;
    if (req_.journal_append) req_.journal_append(results_[res.job.index]);
  }

  void shutdown() {
    // An explicit goodbye before every close: a forked worker exits on it,
    // and a reconnecting workerd tells "campaign complete" (exit cleanly)
    // from a lost connection (re-dial) by it. Best-effort — the campaign is
    // over either way. Every goodbye goes out before the first close waits
    // for a child, so the children exit in parallel.
    for (WorkerSlot& s : slots_) {
      if (s.live) (void)s.shim.write(s.fd, net::encode_event(net::kGoodbye, 0));
    }
    for (WorkerSlot& s : slots_) {
      if (s.live) (void)close_slot(s);
    }
    for (const PendingConn& p : pending_) close_fd(p.fd);
    pending_.clear();
  }

  /// Reads everything a nonblocking fd has into `frames`. False when the
  /// peer is gone (EOF or a read error).
  static bool read_available(int fd, net::FrameBuffer& frames) {
    char tmp[65536];
    for (;;) {
      const ssize_t r = ::read(fd, tmp, sizeof tmp);
      if (r > 0) {
        frames.append(tmp, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) return false;
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }

  static void close_fd(int fd) {
    while (::close(fd) != 0 && errno == EINTR) {
    }
  }

  /// Wait status folded into one u64 timeline arg: signal number when
  /// signaled, 1000 + exit code when exited.
  [[nodiscard]] static std::uint64_t pack_status(int status) {
    if (WIFSIGNALED(status)) {
      return static_cast<std::uint64_t>(WTERMSIG(status));
    }
    if (WIFEXITED(status)) {
      return 1000u + static_cast<std::uint64_t>(WEXITSTATUS(status));
    }
    return static_cast<std::uint64_t>(status);
  }

  [[nodiscard]] static std::string decode_status(int status,
                                                 bool heartbeat_seen) {
    std::string s;
    if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      s = "worker crashed: " + inject::signal_name(sig);
      if (sig == SIGKILL) {
        s += " (killed externally; possibly the OOM killer)";
      }
    } else if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == 0) {
        s = "worker exited cleanly without replying (lost result)";
      } else {
        s = "worker exited with status " + std::to_string(code);
      }
    } else {
      s = "worker vanished (unrecognized wait status " +
          std::to_string(status) + ")";
    }
    if (!heartbeat_seen) s += " before acknowledging the job";
    return s;
  }

  const ProcessPoolRequest& req_;
  std::vector<JobResult>& results_;
  /// Fixed local slots first, remote slots appended as workers register.
  /// A deque so slot references stay valid across the appends.
  std::deque<WorkerSlot> slots_;
  std::size_t local_slots_ = 0;  ///< fixed count of forked-worker slots
  std::vector<PendingConn> pending_; ///< accepted, not yet registered
  std::deque<QueueItem> queue_;
  WorkerPoolStats stats_;
  std::shared_ptr<telemetry::Timeline> timeline_;
  std::uint64_t seq_ = 0;   ///< ordinal timeline timestamp
  int crash_streak_ = 0;    ///< consecutive local crashes since a result
  int spawn_failures_ = 0;  ///< consecutive failed socketpair/fork attempts
  bool initial_wave_done_ = false;
};

} // namespace

std::chrono::steady_clock::time_point wall_now() {
  return std::chrono::steady_clock::now();
}

double wall_elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(wall_now() - since)
      .count();
}

WorkerWorkloads build_worker_workloads(const SweepSpec& spec) {
  WorkerWorkloads w;
  try {
    w.workloads =
        spec.factory ? spec.factory() : make_all_workloads(spec.scale);
  } catch (const std::exception& e) {
    w.setup_error = std::string("workload setup failed: ") + e.what();
  } catch (...) {
    w.setup_error = "workload setup failed: unknown exception";
  }
  return w;
}

JobResult run_job(
    const SweepSpec& spec, const std::vector<CampaignJob>& jobs,
    std::size_t job_index, int start_attempt, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    WorkerWorkloads& w) {
  const CampaignJob& job = jobs[job_index];
  JobResult out;
  out.job = job;
  const auto job_start = wall_now();
  if (!w.setup_error.empty()) {
    // Setup failures are environmental, not per-job: never retried.
    out.attempts = start_attempt;
    out.error = w.setup_error;
  } else if (job.workload_index >= w.workloads.size()) {
    out.attempts = start_attempt;
    out.error = "workload factory returned fewer workloads than expected";
  } else {
    for (int attempt = start_attempt;; ++attempt) {
      if (inject_crash && inject_crash->applies(job_index, attempt)) {
        crash_now(inject_crash->signal);
      }
      out.attempts = attempt;
      out.ok = false;
      out.error.clear();
      try {
        const ExperimentConfig& config =
            spec.variants.empty()
                ? ExperimentConfig{}
                : spec.variants[job.variant_index].config;
        const Simulation sim(config);
        out.report = sim.run(*w.workloads[job.workload_index], job.spec);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      if (out.ok || attempt >= max_attempts) break;
    }
  }
  out.wall_ms = wall_elapsed_ms(job_start);
  return out;
}

void classify_job_timeout(JobResult& result, double job_timeout_ms) {
  if (job_timeout_ms > 0.0 && result.wall_ms > job_timeout_ms) {
    mark_timed_out(result, job_timeout_ms, "timeout");
  }
}

SessionEnd serve_jobs(
    int fd, net::FrameWriteShim& shim, const SweepSpec& spec,
    const std::vector<CampaignJob>& jobs, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    WorkerWorkloads& workloads, CampaignJournalWriter* shard,
    const volatile std::sig_atomic_t* drain_flag, std::uint64_t& jobs_done,
    std::string& error) {
  const bool want_metrics = spec.metrics || spec.timeline;
  std::string payload;
  for (;;) {
    switch (wait_readable(fd, drain_flag)) {
      case WaitVerdict::kDrain:
        // Nothing is in flight (jobs run synchronously below) and every
        // shard record is already fsynced; goodbye is best-effort — a
        // draining worker must not hang on a dead supervisor.
        (void)shim.write(fd, net::encode_event(net::kGoodbye, jobs_done));
        return SessionEnd::kDrained;
      case WaitVerdict::kLost:
        error = "connection lost while waiting for work";
        return SessionEnd::kLost;
      case WaitVerdict::kReadable:
        break;
    }
    if (!net::read_frame(fd, payload)) {
      error = "connection lost while waiting for work";
      return SessionEnd::kLost;
    }

    net::JobDispatchFrame dispatch;
    switch (net::peek_frame_type(payload)) {
      case net::kGoodbye: {
        // Verify before honoring: a corrupted frame whose first byte
        // happens to read kGoodbye must not end the session as "campaign
        // complete" — reconnect (kLost) is the honest verdict.
        net::EventFrameHeader bye;
        if (!net::decode_event_header(payload, bye)) {
          error = "corrupted goodbye frame from supervisor";
          return SessionEnd::kLost;
        }
        return SessionEnd::kComplete;
      }
      case net::kPing: {
        net::EventFrameHeader ping;
        if (!net::decode_event_header(payload, ping)) {
          error = "corrupted liveness probe from supervisor";
          return SessionEnd::kLost;
        }
        // Echo the sequence number so the supervisor can match the pong
        // to its outstanding probe.
        if (!shim.write(fd, net::encode_event(net::kPong, ping.job))) {
          error = "connection lost while answering a liveness probe";
          return SessionEnd::kLost;
        }
        continue;
      }
      case net::kJobDispatch:
        if (!net::decode_dispatch(payload, dispatch) ||
            dispatch.job >= jobs.size() || dispatch.start_attempt < 1) {
          error = "corrupted dispatch frame from supervisor";
          return SessionEnd::kLost;
        }
        break;
      default:
        error = "unrecognized frame from supervisor (corrupted stream?)";
        return SessionEnd::kLost;
    }

    // Heartbeat before the work: tells the supervisor which job this
    // worker now owns and arms the hard timeout from the job's true start.
    if (!shim.write(fd, net::encode_event(net::kJobStarted, dispatch.job))) {
      error = "connection lost while acknowledging a job";
      return SessionEnd::kLost;
    }

    const JobResult result = run_job(
        spec, jobs, static_cast<std::size_t>(dispatch.job),
        static_cast<int>(dispatch.start_attempt), max_attempts, inject_crash,
        workloads);
    if (shard != nullptr && shard->is_open()) {
      try {
        shard->append(result);
      } catch (const std::exception& e) {
        // A worker whose shard cannot persist results must stop, loudly:
        // reconnecting cannot heal a full disk, and serving on without a
        // journal would silently break the crash-resume contract. The
        // result frame for this job is deliberately NOT sent — the
        // supervisor re-dispatches it to a worker that can persist it.
        error = std::string("journal shard write failed: ") + e.what();
        return SessionEnd::kArtifact;
      }
    }

    std::ostringstream body;
    write_sized_string(body, serialize_job_result(result));
    const std::uint8_t has_metrics = want_metrics && result.ok ? 1 : 0;
    write_pod(body, has_metrics);
    if (has_metrics != 0) {
      net::pack_metrics_snapshot(body, result.report.metrics);
    }
    if (!shim.write(fd, net::encode_result_frame(dispatch.job, body.str()))) {
      error = "connection lost while delivering a result";
      return SessionEnd::kLost;
    }
    ++jobs_done;

    if (drain_requested(drain_flag)) {
      // The in-flight job finished and its result went out; now leave.
      (void)shim.write(fd, net::encode_event(net::kGoodbye, jobs_done));
      return SessionEnd::kDrained;
    }
  }
}

ProcessPoolOutcome run_process_pool(const ProcessPoolRequest& req,
                                    std::vector<JobResult>& results) {
  TM_REQUIRE(req.spec != nullptr && req.jobs != nullptr,
             "process pool: spec and jobs are required");
  TM_REQUIRE(req.max_attempts >= 1,
             "process pool: max_attempts must be >= 1");
  TM_REQUIRE(req.workers >= 1 ||
                 (req.listener != nullptr && req.listener->is_open()),
             "process pool: need at least one forked worker or an open "
             "listener for remote workers");
  TM_REQUIRE(results.size() == req.jobs->size(),
             "process pool: results must be pre-sized to the job list");
  for (const std::size_t ji : req.pending) {
    TM_REQUIRE(ji < results.size(), "process pool: pending index out of range");
  }
  ProcessSupervisor supervisor(req, results);
  return supervisor.run();
}

} // namespace tmemo

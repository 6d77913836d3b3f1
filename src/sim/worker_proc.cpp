#include "sim/worker_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/pod_io.hpp"
#include "common/require.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "telemetry/collector.hpp"

namespace tmemo {

namespace {

/// Backoff ceiling between a crash and the replacement fork.
constexpr int kMaxRespawnBackoffMs = 200;

/// A connecting peer has this long to deliver its HelloFrame before the
/// half-open connection is dropped (a port scanner or wedged peer must not
/// occupy the supervisor forever).
constexpr int kHandshakeTimeoutMs = 5000;

// Wall-clock reads are confined to wall_now() (lint rule R1): supervision
// deadlines and wall_ms reporting only — never simulation results.
std::chrono::steady_clock::time_point wall_now() {
  return std::chrono::steady_clock::now();
}

double wall_elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(wall_now() - since)
      .count();
}

// ---------------------------------------------------------------------------
// Worker child. Forked from the supervisor, so it inherits spec, jobs and
// the workload factory; only (job index, attempt) ever crosses the pipe.
// Every exit path is _exit() or a raised signal — a forked gtest/ASan child
// must never run the parent's atexit machinery.

/// Dies the way the injection plan asks. Signal handlers installed by the
/// host (sanitizers, gtest death tests) are reset first so the death is
/// reported to waitpid as a real signal, not converted to a clean exit.
[[noreturn]] void crash_now(int sig) {
  if (sig == inject::kWorkerExitsCleanly) _exit(0);
  std::signal(sig, SIG_DFL);
  ::raise(sig);
  _exit(111); // only reachable if the signal was blocked
}

[[noreturn]] void worker_main(const ProcessPoolRequest& req, int job_fd,
                              int res_fd) {
  // Private workload set, built once — exactly like a worker thread.
  std::vector<std::unique_ptr<Workload>> workloads;
  std::string setup_error;
  try {
    workloads = req.spec->factory ? req.spec->factory()
                                  : make_all_workloads(req.spec->scale);
  } catch (const std::exception& e) {
    setup_error = std::string("workload setup failed: ") + e.what();
  } catch (...) {
    setup_error = "workload setup failed: unknown exception";
  }

  std::string payload;
  for (;;) {
    if (!net::read_frame(job_fd, payload)) _exit(0); // EOF: campaign done
    // A goodbye is the explicit form of the EOF shutdown (the socket
    // fabric needs it; pipes accept either for symmetry).
    if (net::peek_frame_type(payload) == net::kGoodbye) _exit(0);
    net::JobDispatchFrame dispatch;
    if (!net::decode_dispatch(payload, dispatch) ||
        dispatch.job >= req.jobs->size() || dispatch.start_attempt < 1) {
      _exit(3); // protocol violation: let the supervisor decode exit 3
    }

    // Heartbeat before the work: tells the supervisor which job this
    // worker now owns and arms the hard timeout from the job's true start.
    if (!net::write_frame(res_fd,
                          net::encode_event(net::kJobStarted, dispatch.job))) {
      _exit(3);
    }

    const JobResult out = run_dispatched_job(
        *req.spec, *req.jobs, static_cast<std::size_t>(dispatch.job),
        static_cast<int>(dispatch.start_attempt), req.max_attempts,
        req.inject_crash, workloads, setup_error);

    std::ostringstream body;
    write_sized_string(body, serialize_job_result(out));
    const std::uint8_t has_metrics = req.want_metrics && out.ok ? 1 : 0;
    write_pod(body, has_metrics);
    if (has_metrics != 0) net::pack_metrics_snapshot(body, out.report.metrics);
    if (!net::write_frame(res_fd,
                          net::encode_result_frame(dispatch.job, body.str()))) {
      _exit(3);
    }
  }
}

// ---------------------------------------------------------------------------
// Supervisor.

/// A queued dispatch: which job, and which attempt number the worker should
/// resume its retry loop at (advanced past the attempts a crash consumed).
struct QueueItem {
  std::size_t job = 0;
  int attempt = 1;
};

struct WorkerSlot {
  enum class Kind {
    kPipe,   ///< forked child, frames over a pipe pair
    kSocket, ///< registered tmemo_workerd, frames over one TCP connection
  };

  Kind kind = Kind::kPipe;
  std::uint32_t id = 0; ///< stable slot number (timeline pid)
  pid_t pid = -1;       ///< kPipe only
  int job_fd = -1; ///< supervisor writes job frames here
  int res_fd = -1; ///< supervisor reads response frames here (nonblocking;
                   ///< == job_fd for socket workers)
  std::string buf; ///< unparsed response bytes
  bool live = false;
  bool busy = false;
  std::size_t job = 0;
  int attempt = 0;
  bool heartbeat_seen = false;
  bool timeout_killed = false;
  bool deadline_armed = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point job_start{};
  // Liveness keepalive (socket slots only): when the last well-formed
  // frame arrived, and the one outstanding ping awaiting its pong.
  std::chrono::steady_clock::time_point last_heard{};
  bool ping_outstanding = false;
  std::uint64_t ping_seq = 0;
  std::chrono::steady_clock::time_point pong_deadline{};
  /// Outgoing frame path (socket slots): pass-through unless the request
  /// arms --inject-net chaos on this channel.
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
        pipe_slots_(static_cast<std::size_t>(std::max(0, req.workers))) {
    for (std::size_t i = 0; i < pipe_slots_; ++i) {
      WorkerSlot s;
      s.kind = WorkerSlot::Kind::kPipe;
      s.id = static_cast<std::uint32_t>(i);
      slots_.push_back(s);
    }
    next_slot_id_ = static_cast<std::uint32_t>(pipe_slots_);
    if (req_.want_timeline) {
      timeline_ = std::make_shared<telemetry::Timeline>();
    }
  }

  ProcessPoolOutcome run() {
    // Shared with run_workerd: a dispatch to a just-died worker must
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
            s.id, (s.kind == WorkerSlot::Kind::kSocket ? "remote worker "
                                                       : "worker ") +
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

  [[nodiscard]] std::size_t live_pipe_count() const {
    std::size_t n = 0;
    for (const WorkerSlot& s : slots_) {
      n += s.kind == WorkerSlot::Kind::kPipe && s.live ? 1 : 0;
    }
    return n;
  }

  void note(const char* name, const WorkerSlot& s,
            const telemetry::TimelineArgs& args) {
    if (!timeline_) return;
    telemetry::record_supervision_event(*timeline_, name, s.id, seq_++,
                                        args);
  }

  /// Keeps live pipe workers matched to remaining work; a fork after the
  /// initial wave is by definition a respawn and pays the bounded backoff
  /// the crash streak has earned. Socket workers arrive on their own
  /// schedule and are never spawned from here.
  void spawn_needed() {
    const std::size_t want =
        std::min(pipe_slots_, queue_.size() + busy_count());
    while (live_pipe_count() < want) {
      WorkerSlot* slot = nullptr;
      for (WorkerSlot& s : slots_) {
        if (s.kind == WorkerSlot::Kind::kPipe && !s.live) {
          slot = &s;
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
        TM_REQUIRE(live_pipe_count() > 0 || has_remote_capacity() ||
                       spawn_failures_ < 100,
                   "campaign worker pool: cannot fork any worker");
        return; // retry on the next loop iteration
      }
      spawn_failures_ = 0;
    }
    initial_wave_done_ = true;
  }

  /// True when remote workers can still carry the campaign even with zero
  /// live pipe workers: a listener is accepting, or a socket worker is
  /// already registered.
  [[nodiscard]] bool has_remote_capacity() const {
    if (req_.listener != nullptr && req_.listener->is_open()) return true;
    for (const WorkerSlot& s : slots_) {
      if (s.kind == WorkerSlot::Kind::kSocket && s.live) return true;
    }
    return false;
  }

  bool spawn(WorkerSlot& slot) {
    int job_pipe[2] = {-1, -1};
    int res_pipe[2] = {-1, -1};
    if (::pipe(job_pipe) != 0) return false;
    if (::pipe(res_pipe) != 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      ::close(res_pipe[0]);
      ::close(res_pipe[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop the supervisor's ends and every sibling's fds — pipe
      // or socket — or a crashed sibling's EOF would be held open by this
      // process; the listener too, or the port would outlive the
      // supervisor.
      ::close(job_pipe[1]);
      ::close(res_pipe[0]);
      for (const WorkerSlot& other : slots_) {
        if (!other.live) continue;
        ::close(other.job_fd);
        if (other.res_fd != other.job_fd) ::close(other.res_fd);
      }
      for (const PendingConn& p : pending_) ::close(p.fd);
      if (req_.listener != nullptr && req_.listener->is_open()) {
        ::close(req_.listener->fd());
      }
      worker_main(req_, job_pipe[0], res_pipe[1]); // never returns
    }
    ::close(job_pipe[0]);
    ::close(res_pipe[1]);
    // The nonblocking flag is load-bearing: drain() spins on read() until
    // EAGAIN, so a silently-blocking pipe would hang the whole campaign.
    const int flags = ::fcntl(res_pipe[0], F_GETFL, 0);
    const int set_rc =
        flags == -1 ? -1 : ::fcntl(res_pipe[0], F_SETFL, flags | O_NONBLOCK);
    TM_REQUIRE(set_rc != -1,
               "campaign worker pool: cannot set O_NONBLOCK on result pipe");
    slot.pid = pid;
    slot.job_fd = job_pipe[1];
    slot.res_fd = res_pipe[0];
    slot.buf.clear();
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
      const bool sent = s.kind == WorkerSlot::Kind::kSocket
                            ? s.shim.write(s.job_fd, msg)
                            : net::write_frame(s.job_fd, msg);
      if (!sent) {
        // The worker died between jobs (EPIPE/ECONNRESET). Put the job
        // back and handle the death.
        s.busy = false;
        queue_.push_front(item);
        if (s.kind == WorkerSlot::Kind::kPipe) {
          reap(s);
        } else {
          // A draining workerd says goodbye and closes; the write fails
          // once its close resets the connection, but the goodbye may
          // already be waiting unread. Honor it before calling the
          // connection lost.
          drain(s);
          if (s.live) {
            disconnect(s, "remote worker disconnected (connection lost)");
          }
        }
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
      fds.push_back(pollfd{slots_[i].res_fd, POLLIN, 0});
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
          if (!s.live || s.kind != WorkerSlot::Kind::kSocket) continue;
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
    bool broken = false;
    char tmp[4096];
    for (;;) {
      const ssize_t r = ::read(p.fd, tmp, sizeof tmp);
      if (r > 0) {
        p.frames.append(tmp, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) {
        broken = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      broken = true;
      break;
    }

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
    // Mirror the spec's telemetry switches bit-for-bit (not want_metrics,
    // which is their OR): the workerd re-derives per-job RunSpecs from
    // these, and a job that collects metrics it shouldn't would leak into
    // the campaign-level merge.
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
    slot.kind = WorkerSlot::Kind::kSocket;
    slot.id = next_slot_id_++;
    slot.job_fd = p.fd;
    slot.res_fd = p.fd;
    slot.buf = p.frames.take_buffered(); // pipelined post-handshake bytes
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

  /// Reads everything available from a worker, parses complete frames, and
  /// handles worker death on EOF (reap for pipes, disconnect for sockets).
  void drain(WorkerSlot& s) {
    bool eof = false;
    char tmp[65536];
    for (;;) {
      const ssize_t r = ::read(s.res_fd, tmp, sizeof tmp);
      if (r > 0) {
        s.buf.append(tmp, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true; // read error: treat like a vanished worker
      break;
    }
    while (s.live) {
      if (s.buf.size() < sizeof(FrameHeader)) break;
      FrameHeader hdr;
      std::memcpy(&hdr, s.buf.data(), sizeof hdr);
      if (hdr.len > net::kMaxFrameBytes) {
        protocol_error(s);
        return;
      }
      if (s.buf.size() < sizeof hdr + hdr.len) break;
      const std::string payload = s.buf.substr(sizeof hdr, hdr.len);
      s.buf.erase(0, sizeof hdr + hdr.len);
      handle_frame(s, payload);
    }
    if (eof && s.live) {
      if (s.kind == WorkerSlot::Kind::kPipe) {
        reap(s);
      } else {
        disconnect(s, "remote worker disconnected (connection lost)");
      }
    }
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
        if (s.kind != WorkerSlot::Kind::kSocket || !s.ping_outstanding ||
            hdr.job != s.ping_seq) {
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
      // pipe is discarded, exactly like the thread pool discards a run
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
    if (req_.job_timeout_ms > 0.0 && res.wall_ms > req_.job_timeout_ms) {
      // Finished but over budget: classify like the thread pool's
      // cooperative check so both isolation modes agree on the verdict.
      res.ok = false;
      res.timed_out = true;
      res.report = KernelRunReport{};
      res.error = "job exceeded " + format_ms(req_.job_timeout_ms) +
                  " ms timeout";
    }
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
    if (s.kind != WorkerSlot::Kind::kSocket) {
      protocol_error(s); // pipe workers shut down by EOF, never goodbye
      return;
    }
    ++stats_.remote_drains;
    note("worker_drain", s,
         {{"mid_job", static_cast<std::uint64_t>(s.busy ? 1 : 0)}});
    const bool was_busy = s.busy;
    const QueueItem raced{s.job, s.attempt};
    close_fd(s.job_fd);
    s.job_fd = s.res_fd = -1;
    s.live = false;
    s.busy = false;
    s.deadline_armed = false;
    s.ping_outstanding = false;
    s.buf.clear();
    if (was_busy) queue_.push_front(raced);
  }

  /// Liveness enforcement for socket workers: ping idle connections, drop
  /// the ones that miss their pong deadline, and reclaim dispatched jobs
  /// whose heartbeat never arrived — the three faces of a half-open
  /// connection. Pipe workers need none of this (pipe EOF is prompt).
  void enforce_keepalive() {
    if (req_.keepalive_interval_ms <= 0) return;
    const auto now = wall_now();
    const auto interval = std::chrono::milliseconds(req_.keepalive_interval_ms);
    const auto timeout =
        std::chrono::milliseconds(std::max(1, req_.keepalive_timeout_ms));
    for (WorkerSlot& s : slots_) {
      if (!s.live || s.kind != WorkerSlot::Kind::kSocket) continue;
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
        if (!s.shim.write(s.job_fd,
                          net::encode_event(net::kPing, s.ping_seq))) {
          disconnect(s, "remote worker disconnected (connection lost)");
          continue;
        }
        s.ping_outstanding = true;
        s.pong_deadline = now + timeout;
      }
    }
  }

  /// A worker that breaks the framing contract is as good as crashed: kill
  /// it (pipe) or drop the connection (socket) and classify the death.
  void protocol_error(WorkerSlot& s) {
    if (s.kind == WorkerSlot::Kind::kPipe) {
      ::kill(s.pid, SIGKILL);
      reap(s);
    } else {
      disconnect(s, "remote worker broke the frame protocol; "
                    "connection dropped");
    }
  }

  /// Handles a pipe worker's death: decode the wait status, then either
  /// record the in-flight job's failure or re-dispatch it under the retry
  /// budget.
  void reap(WorkerSlot& s) {
    ::close(s.job_fd);
    ::close(s.res_fd);
    s.job_fd = s.res_fd = -1;
    s.live = false;
    s.buf.clear();
    int status = 0;
    while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
    }

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

    JobResult res;
    res.job = (*req_.jobs)[s.job];
    res.ok = false;
    res.attempts = s.attempt;
    res.wall_ms = wall_elapsed_ms(s.job_start);

    if (s.timeout_killed) {
      res.timed_out = true;
      res.error = "job exceeded " + format_ms(req_.job_timeout_ms) +
                  " ms hard timeout (worker SIGKILLed)";
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

  /// Handles a socket worker's loss: the same crash taxonomy as reap(),
  /// minus the waitpid (the process is on another machine; all we know is
  /// the connection state).
  void disconnect(WorkerSlot& s, const char* cause) {
    close_fd(s.job_fd);
    s.job_fd = s.res_fd = -1;
    s.live = false;
    s.ping_outstanding = false;
    s.buf.clear();
    ++stats_.remote_disconnects;
    note("worker_disconnect", s,
         {{"mid_job", static_cast<std::uint64_t>(s.busy ? 1 : 0)}});

    if (!s.busy) return; // an idle workerd leaving the pool harms nothing
    s.busy = false;
    s.deadline_armed = false;

    JobResult res;
    res.job = (*req_.jobs)[s.job];
    res.ok = false;
    res.attempts = s.attempt;
    res.wall_ms = wall_elapsed_ms(s.job_start);
    ++stats_.crashes;
    res.error = std::string(cause);
    if (!s.heartbeat_seen) res.error += " before acknowledging the job";
    redispatch_or_finalize(s, res);
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
      if (s.kind == WorkerSlot::Kind::kPipe) {
        ::kill(s.pid, SIGKILL);
        // EOF on the result pipe follows; reap() records the timeout.
      } else {
        // No SIGKILL across machines: dropping the connection is the whole
        // enforcement arsenal. Record the timeout verdict directly.
        JobResult res;
        res.job = (*req_.jobs)[s.job];
        res.ok = false;
        res.timed_out = true;
        res.attempts = s.attempt;
        res.wall_ms = wall_elapsed_ms(s.job_start);
        res.error = "job exceeded " + format_ms(req_.job_timeout_ms) +
                    " ms hard timeout (remote worker disconnected)";
        close_fd(s.job_fd);
        s.job_fd = s.res_fd = -1;
        s.live = false;
        s.busy = false;
        s.buf.clear();
        finalize(res);
      }
    }
  }

  void finalize(const JobResult& res) {
    results_[res.job.index] = res;
    if (req_.journal_append) req_.journal_append(results_[res.job.index]);
  }

  void shutdown() {
    // Closing the job pipe (or socket) is the protocol's shutdown signal:
    // idle workers read EOF and exit cleanly.
    for (WorkerSlot& s : slots_) {
      if (!s.live) continue;
      if (s.kind == WorkerSlot::Kind::kPipe) {
        ::close(s.job_fd);
        ::close(s.res_fd);
        s.job_fd = s.res_fd = -1;
        int status = 0;
        while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
        }
      } else {
        // An explicit goodbye before the close: a reconnecting workerd
        // distinguishes "campaign complete" (exit cleanly) from a lost
        // connection (re-dial) by this frame. Best-effort — the campaign
        // is over either way.
        (void)s.shim.write(s.job_fd, net::encode_event(net::kGoodbye, 0));
        close_fd(s.job_fd);
        s.job_fd = s.res_fd = -1;
      }
      s.live = false;
    }
    for (const PendingConn& p : pending_) close_fd(p.fd);
    pending_.clear();
  }

  static void close_fd(int fd) {
    while (::close(fd) != 0 && errno == EINTR) {
    }
  }

  [[nodiscard]] static std::string format_ms(double ms) {
    std::ostringstream os;
    os << ms;
    return os.str();
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
  /// Fixed pipe slots first, socket slots appended as workers register.
  /// A deque so slot references stay valid across the appends.
  std::deque<WorkerSlot> slots_;
  std::size_t pipe_slots_ = 0;   ///< fixed count of forked-worker slots
  std::uint32_t next_slot_id_ = 0;
  std::vector<PendingConn> pending_; ///< accepted, not yet registered
  std::deque<QueueItem> queue_;
  WorkerPoolStats stats_;
  std::shared_ptr<telemetry::Timeline> timeline_;
  std::uint64_t seq_ = 0;   ///< ordinal timeline timestamp
  int crash_streak_ = 0;    ///< consecutive pipe crashes since a result
  int spawn_failures_ = 0;  ///< consecutive failed fork/pipe attempts
  bool initial_wave_done_ = false;
};

} // namespace

JobResult run_dispatched_job(
    const SweepSpec& spec, const std::vector<CampaignJob>& jobs,
    std::size_t job_index, int start_attempt, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    std::vector<std::unique_ptr<Workload>>& workloads,
    const std::string& setup_error) {
  const CampaignJob& job = jobs[job_index];
  JobResult out;
  out.job = job;
  const auto job_start = wall_now();
  if (!setup_error.empty()) {
    // Setup failures are environmental, not per-job: never retried.
    out.attempts = start_attempt;
    out.error = setup_error;
  } else if (job.workload_index >= workloads.size()) {
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
        out.report = sim.run(*workloads[job.workload_index], job.spec);
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

ProcessPoolOutcome run_process_pool(const ProcessPoolRequest& req,
                                    std::vector<JobResult>& results) {
  TM_REQUIRE(req.spec != nullptr && req.jobs != nullptr,
             "process pool: spec and jobs are required");
  TM_REQUIRE(req.max_attempts >= 1,
             "process pool: max_attempts must be >= 1");
  TM_REQUIRE(req.workers >= 1 ||
                 (req.listener != nullptr && req.listener->is_open()),
             "process pool: need at least one pipe worker or an open "
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

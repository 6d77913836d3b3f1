// The one job function every isolation mode runs, and the process- and
// remote-isolated worker pool around it (docs/RESILIENCE.md,
// docs/DISTRIBUTED.md).
//
// run_job is the whole job: workload-setup check, the in-worker retry loop
// for clean failures, exception capture and wall_ms. Thread workers
// (CampaignEngine::run), forked workers and tmemo_workerd all call it on a
// private workload set from build_worker_workloads, and every finished
// result passes the one over-budget verdict, classify_job_timeout. The
// isolation modes differ only in dispatch — worker threads draw indices
// from a shared list, process and remote workers receive frames — and in
// how a timeout is enforced: cooperatively after the run on threads, by
// SIGKILL (forked worker) or disconnect (remote worker) under supervision.
//
// The thread pool is the fast default, but one SIGSEGV, abort() or
// OOM-kill inside a job takes the whole campaign — and its journal — with
// it. run_process_pool trades a fork() per worker for containment: a
// supervisor (the calling thread; it stays single-threaded, which keeps
// fork() safe under TSan) forks N workers, feeds them jobs over a
// length-prefixed frame protocol (net/frame.hpp) on one socketpair per
// worker, and turns every way a worker can die — signal, nonzero exit,
// clean exit without replying, blown hard timeout — into a decoded
// JobResult::error while every other job completes. Crashed in-flight jobs
// are re-dispatched under the retry budget, replacement workers are forked
// with bounded backoff, and the whole campaign remains bit-identical to
// thread isolation (wall_ms aside) because nothing but the job index and
// attempt number crosses the socket: each worker rebuilds spec/workloads
// from the inherited address space, exactly like a worker thread would.
//
// The same supervisor also runs the distributed fabric: given a
// net::Listener it accepts tmemo_workerd TCP connections, validates each
// peer's HelloFrame registration (protocol version, campaign digest, job
// count), and then serves socket and forked workers from the *same* slots
// in the *same* poll() loop. Both kinds of worker run the one job loop,
// serve_jobs below, so they speak the same frames by construction. A lost
// connection maps into the crash taxonomy exactly like a dead forked
// worker: the in-flight job is re-dispatched at attempt+1 under the retry
// budget. Remote workers rebuild spec/workloads from their own command
// line (tools/workerd/); the handshake digest catches drift.
//
// Frame grammar: net/frame.hpp. POSIX only (fork/socketpair/poll/waitpid +
// sockets).
#pragma once

#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "sim/campaign.hpp"

namespace tmemo {

namespace net {
class Listener; // net/transport.hpp
}

/// The non-restored slice of a campaign, handed to the process supervisor
/// by CampaignEngine::run. `spec` and `jobs` must outlive the call.
struct ProcessPoolRequest {
  const SweepSpec* spec = nullptr;
  const std::vector<CampaignJob>* jobs = nullptr;
  /// Indices into *jobs (== slots of the results vector) to execute, in
  /// dispatch order.
  std::vector<std::size_t> pending;
  /// Forked local workers. May be 0 when `listener` is set (remote workers
  /// carry the whole campaign); must be >= 1 otherwise.
  int workers = 1;
  /// Retry budget per job; under process/remote isolation it covers worker
  /// crashes and connection losses as well as clean in-worker failures.
  int max_attempts = 1;
  /// Hard per-job wall-clock budget in ms (0 disables): a forked worker
  /// that outlives it is SIGKILLed, a socket worker is disconnected; either way
  /// the job is marked timed_out and never retried.
  double job_timeout_ms = 0.0;
  /// Deterministic crash injection (inject/worker_crash.hpp).
  std::optional<inject::WorkerCrashInjection> inject_crash;
  /// Called on the supervising thread with every finished JobResult in
  /// completion order; null disables journaling.
  std::function<void(const JobResult&)> journal_append;
  /// Accepts remote tmemo_workerd registrations when set (not owned; must
  /// outlive the call). Null = forked workers only.
  net::Listener* listener = nullptr;
  /// Registration gate for remote workers: a HelloFrame whose
  /// campaign_digest differs is rejected (campaign_wire_digest).
  std::uint64_t campaign_digest = 0;
  /// Liveness keepalive for socket workers (docs/DISTRIBUTED.md): idle
  /// workers are pinged every `keepalive_interval_ms` (0 disables, the
  /// low-level default — CampaignRunOptions turns it on) and must pong
  /// within `keepalive_timeout_ms`. A miss — or a dispatched job whose
  /// kJobStarted heartbeat never arrives within interval+timeout — marks
  /// the connection half-open and folds it into the disconnect taxonomy,
  /// so a black-holed peer cannot hang the campaign tail.
  int keepalive_interval_ms = 0;
  int keepalive_timeout_ms = 2000;
  /// Deterministic chaos on the supervisor's outgoing socket frames
  /// (net/fault.hpp); the channel salt is the worker slot id. Forked
  /// workers are never injected — the chaos target is the network fabric.
  std::optional<net::NetFaultSpec> inject_net;
};

struct ProcessPoolOutcome {
  WorkerPoolStats stats;
  /// Supervisor lifecycle timeline (null unless spec->timeline): the
  /// worker_spawn, worker_crash, worker_respawn, job_redispatch,
  /// job_timeout_kill, worker_connect, worker_disconnect, worker_reject
  /// and worker_drain instants, with ordinal — not wall-clock — timestamps.
  std::shared_ptr<const telemetry::Timeline> timeline;
};

/// Runs req.pending under forked worker processes and/or remote socket
/// workers, writing each job's outcome into results[job_index] (slots not
/// listed in req.pending are left untouched). Throws std::invalid_argument
/// on a malformed request and std::runtime_error when the pool itself
/// cannot be stood up (fork or pipe failure on the very first worker).
ProcessPoolOutcome run_process_pool(const ProcessPoolRequest& req,
                                    std::vector<JobResult>& results);

/// Wall-clock reads are confined to wall_now() (lint rule R1): its values
/// feed only wall_ms reporting and supervision deadlines, never simulation
/// results, which is why wall_ms is the one column the CI determinism
/// check ignores.
[[nodiscard]] std::chrono::steady_clock::time_point wall_now();
[[nodiscard]] double wall_elapsed_ms(
    std::chrono::steady_clock::time_point since);

/// A worker's private workload set, built once per worker thread or
/// process. A non-empty `setup_error` marks the environment broken: every
/// job run on it records the error and none is retried.
struct WorkerWorkloads {
  std::vector<std::unique_ptr<Workload>> workloads;
  std::string setup_error;
};

[[nodiscard]] WorkerWorkloads build_worker_workloads(const SweepSpec& spec);

/// Runs jobs[job_index] on `w` with the job's whole remaining retry budget
/// for *clean* failures: attempts start_attempt..max_attempts until one
/// succeeds. Setup failures and a factory that returned too few workloads
/// are environmental and never retried. Crashes are the supervisor's share
/// of the budget: a redispatch resumes at attempt+1. When `inject_crash`
/// applies to a (job, attempt) the calling *process* dies by the injected
/// signal, so only expendable worker processes pass one.
[[nodiscard]] JobResult run_job(
    const SweepSpec& spec, const std::vector<CampaignJob>& jobs,
    std::size_t job_index, int start_attempt, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    WorkerWorkloads& w);

/// The over-budget verdict for a finished job: with a positive
/// `job_timeout_ms` and `result.wall_ms` above it, the result is discarded
/// — ok cleared, report reset, timed_out set, error "job exceeded <budget>
/// ms timeout" — so slow outliers surface as failures instead of skewing
/// the grid. Thread workers and the supervisor both apply it.
void classify_job_timeout(JobResult& result, double job_timeout_ms);

/// How a serve_jobs session ended.
enum class SessionEnd {
  kComplete, ///< the supervisor said goodbye: campaign done
  kDrained,  ///< a drain was requested; goodbye sent
  kLost,     ///< connection lost / stream corrupted
  kArtifact, ///< journal shard write failed: fatal, not reconnect material
};

/// How often an idle worker with a drain flag wakes to check it. A signal
/// also interrupts the wait (EINTR); this is the backstop for one delivered
/// between syscalls.
inline constexpr int kDrainPollMs = 100;

/// The one frame-serving loop, run by forked workers over their socketpair
/// and by tmemo_workerd (net::run_workerd) over TCP. It serves typed frames
/// on the blocking stream `fd`: each dispatch is acknowledged with a
/// kJobStarted heartbeat, run by run_job, appended to `shard` when one is
/// given, and answered with its result frame — carrying a MetricsSnapshot
/// when the spec collects metrics or a timeline. Pings are echoed; a
/// verified goodbye ends the session as kComplete. When `drain_flag`
/// becomes non-zero the worker finishes its in-flight job, says goodbye and
/// returns kDrained. Every outgoing frame goes through `shim`. A frame that
/// does not parse ends the session as kLost: under fault injection a
/// corrupted frame and a hostile supervisor look identical, and reconnect
/// heals both. `inject_crash` is handed to run_job, so callers must be
/// expendable worker processes. `jobs_done` counts delivered results;
/// `error` says why a session ended other than kComplete.
[[nodiscard]] SessionEnd serve_jobs(
    int fd, net::FrameWriteShim& shim, const SweepSpec& spec,
    const std::vector<CampaignJob>& jobs, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    WorkerWorkloads& workloads, CampaignJournalWriter* shard,
    const volatile std::sig_atomic_t* drain_flag, std::uint64_t& jobs_done,
    std::string& error);

} // namespace tmemo

// Remote campaign worker: the client half of the distributed fabric
// (docs/DISTRIBUTED.md).
//
// run_workerd is the whole life of one tmemo_workerd process: rebuild the
// campaign spec (the caller parsed it from the same flags the supervisor
// uses), build the workloads, connect to the supervisor, register with a
// HelloFrame — the campaign digest proves both ends expanded the same grid
// with the same configs — and then serve typed frames (dispatch, ping,
// goodbye) until the supervisor says goodbye, a drain is requested, or the
// connection dies. It is a library function, not a main(), so the loopback
// e2e tests can fork() a child that inherits a custom WorkloadFactory and
// call it directly, exactly like the process pool forks its workers. The
// job loop inside each session is serve_jobs (sim/worker_proc.hpp), the
// same one forked workers run; this file adds dial, handshake, reconnect
// and drain around it.
//
// Resilience model (docs/RESILIENCE.md):
//  - A workerd that dies mid-job simply vanishes from the supervisor's
//    poll() loop; the supervisor maps the lost connection into the
//    worker-crash taxonomy and re-dispatches the job elsewhere. Nothing
//    here needs to be crash-safe except the journal shard, which is
//    write+fsync per record (CampaignJournalWriter).
//  - A *lost connection* (EOF without a goodbye frame, a failed write, a
//    corrupted stream) optionally triggers reconnect: re-dial with
//    jittered exponential backoff, re-register through the digest
//    handshake, keep appending to the same shard. This survives a
//    supervisor restart mid-campaign.
//  - A *drain request* (SIGTERM handler sets `*drain_flag`) finishes the
//    in-flight job, sends a goodbye frame and returns cleanly; the
//    supervisor reassigns any raced dispatch without burning a retry
//    attempt.
#pragma once

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>

#include "inject/worker_crash.hpp"
#include "io/fs_fault.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "sim/campaign.hpp"

namespace tmemo::net {

struct WorkerdOptions {
  /// Supervisor address to register with.
  HostPort connect;
  /// TCP connect budget (per dial).
  int connect_timeout_ms = 5000;
  /// Local journal-v2 shard: every job this worker finishes is appended
  /// here (same format as the supervisor's campaign journal, same
  /// fingerprint header; `tmemo_journal merge` folds shards together).
  /// Empty disables the shard. The shard stays open across reconnects.
  std::string journal_path;
  /// Deterministic crash injection for tests: the *process* dies by the
  /// injected signal when the plan matches a (job, attempt) this worker is
  /// dispatched. Callers must therefore be expendable child processes.
  std::optional<inject::WorkerCrashInjection> inject_crash;
  /// Deterministic network fault injection on this end's outgoing frames
  /// (--inject-net; see net/fault.hpp for the spec grammar).
  std::optional<NetFaultSpec> inject_net;
  /// Deterministic filesystem fault injection on the journal shard and its
  /// checkpoints (--inject-fs; see io/fs_fault.hpp for the spec grammar).
  /// A shard fault ends the run with `artifact_error` set — a worker that
  /// cannot persist results must not keep consuming dispatches silently.
  std::optional<io::FsFaultSpec> inject_fs;
  /// Compact the journal shard into a sealed `<shard>.checkpoint` every N
  /// appends (0 disables; requires journal_path). See docs/RESILIENCE.md.
  std::size_t checkpoint_every = 0;
  /// How many consecutive failed re-dials to tolerate after a lost
  /// connection before giving up (0 = never reconnect, the historical
  /// behaviour). A successful re-registration refills the budget.
  int reconnect_attempts = 0;
  /// Base of the jittered exponential re-dial backoff. Attempt k sleeps
  /// a deterministic draw from [b/2, b] with b = min(base << k, 5000ms).
  int reconnect_backoff_ms = 200;
  /// Seed for the deterministic backoff jitter stream (lint R8: all
  /// injected randomness replays from seeds).
  std::uint64_t reconnect_seed = 0;
  /// When non-null, a SIGTERM handler's sig_atomic_t: any non-zero value
  /// requests a graceful drain — finish the in-flight job, flush the
  /// shard, send kGoodbye, return with `drained` set.
  const volatile std::sig_atomic_t* drain_flag = nullptr;
};

struct WorkerdOutcome {
  /// True on the two clean endings: the supervisor said goodbye (campaign
  /// complete) or a requested drain finished. False = `error` says why.
  bool ok = false;
  std::string error;
  /// Jobs this worker ran to completion (results delivered), summed
  /// across reconnect sessions.
  std::uint64_t jobs_done = 0;
  /// True when a drain request (SIGTERM) ended the run.
  bool drained = false;
  /// True when the run ended because an established session was lost and
  /// the reconnect budget (if any) ran out — tmemo_workerd maps this to
  /// its own exit status so orchestration can tell "campaign complete"
  /// from "supervisor went away".
  bool connection_lost = false;
  /// Successful re-registrations after a lost connection.
  std::uint64_t reconnects = 0;
  /// True when the run ended because the journal shard (or a checkpoint)
  /// could not be written — tmemo_workerd maps this to its artifact-error
  /// exit status, distinct from "campaign failed" and "connection lost".
  bool artifact_error = false;
};

/// Runs one remote worker (possibly spanning several connection sessions
/// when reconnect is enabled) against `spec`, which must be built from the
/// same flags as the supervisor's — the handshake digest rejects drift.
/// Blocks until the campaign ends, a drain completes, or the connection
/// (budget included) fails. The spec's metrics/timeline switches are
/// overwritten from the supervisor's HelloAck, so the caller need not
/// guess them. Installs ScopedIgnoreSigpipe for its whole lifetime.
[[nodiscard]] WorkerdOutcome run_workerd(SweepSpec spec,
                                         const WorkerdOptions& options);

} // namespace tmemo::net

// Campaign engine: bulk execution of the paper's result grids.
//
// The paper's figures are grids of independent runs — 7 kernels x error
// rates 0..4% (Fig. 10), 6 kernels x supplies 0.9..0.8 V (Fig. 11), each
// optionally crossed with thresholds and configuration ablations. A
// SweepSpec describes such a grid declaratively; the CampaignEngine expands
// it into a stable-ordered job list and runs the jobs on a thread pool.
//
// Determinism: every job's device seed is derived from the campaign seed
// and the job index (derive_job_seed), and each worker thread builds its
// own private workload set, so a campaign produces bit-identical
// CampaignResults for any worker count. A throwing job records an error
// entry instead of killing the campaign.
//
// Crash safety (CampaignRunOptions): jobs can be bounded-retried and
// soft-timed-out, and every finished job can be appended to an RFC-4180
// journal that a later run resumes from (--resume), restoring completed
// jobs bit-identically instead of re-executing them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <map>

#include "inject/worker_crash.hpp"
#include "io/fs_fault.hpp"
#include "net/fault.hpp"
#include "sim/simulation.hpp"

namespace tmemo {

namespace net {
class Listener; // net/transport.hpp (remote isolation)
}

/// One swept independent-variable axis, expanded into `count` evenly spaced
/// points from `start` to `stop` inclusive (count == 1 pins `start`).
struct SweepAxis {
  enum class Kind { kErrorRate, kVoltage };

  Kind kind = Kind::kErrorRate;
  double start = 0.0;
  double stop = 0.0;
  int count = 1;

  [[nodiscard]] static SweepAxis error_rate(double start, double stop,
                                            int count);
  [[nodiscard]] static SweepAxis voltage(double start, double stop, int count);
  /// Single fixed operating point.
  [[nodiscard]] static SweepAxis error_rate_point(double rate) {
    return error_rate(rate, rate, 1);
  }
  [[nodiscard]] static SweepAxis voltage_point(Volt supply) {
    return voltage(supply, supply, 1);
  }

  /// The axis values in sweep order.
  [[nodiscard]] std::vector<double> points() const;

  /// Parses the CLI axis syntax "error-rate:START:STOP:COUNT" or
  /// "voltage:START:STOP:COUNT" (e.g. "error-rate:0:0.04:9"). Returns
  /// nullopt on malformed input.
  [[nodiscard]] static std::optional<SweepAxis> parse(std::string_view text);

  [[nodiscard]] std::string_view kind_name() const noexcept {
    return kind == Kind::kErrorRate ? "error-rate" : "voltage";
  }
};

/// A named ExperimentConfig ablation of the campaign grid.
struct ConfigVariant {
  std::string label = "base";
  ExperimentConfig config;
};

/// Produces a private workload set for one worker thread. Each worker calls
/// the factory once, so Workload implementations need no thread safety. The
/// factory must be deterministic: every invocation must return the same
/// workloads in the same order.
using WorkloadFactory =
    std::function<std::vector<std::unique_ptr<Workload>>()>;

/// Declarative description of a results grid:
/// variants x workloads x thresholds x axis points.
struct SweepSpec {
  /// Problem scale for make_all_workloads() when `factory` is unset.
  double scale = 0.04;
  /// Case-insensitive kernel-name filter; empty (or containing "all")
  /// selects every workload the factory provides.
  std::vector<std::string> kernels;
  /// Overrides the default make_all_workloads(scale) workload set.
  WorkloadFactory factory;
  SweepAxis axis;
  /// Threshold overrides; empty = each workload's Table-1 default.
  std::vector<float> thresholds;
  /// Config ablations; empty = a single base-config variant.
  std::vector<ConfigVariant> variants;
  /// Per-job device seeds derive from this and the job index, so results do
  /// not depend on the worker count or scheduling.
  std::uint64_t campaign_seed = 0x5eed;
  /// Collect telemetry metrics for every job; the per-run snapshots are
  /// merged (in job-index order, but the merge is order-independent) into
  /// CampaignResult::metrics.
  bool metrics = false;
  /// Record the event timeline of job 0 (the representative run; recording
  /// every job would multiply memory for little insight). Implies metrics
  /// for that job.
  bool timeline = false;
};

/// Deterministic per-job seed (splitmix-style mix of campaign seed and job
/// index) — the seed RunSpec::seed() is set to for job `index`.
[[nodiscard]] std::uint64_t derive_job_seed(std::uint64_t campaign_seed,
                                            std::size_t index);

/// One expanded grid cell. `index` is the job's position in the stable
/// expansion order: variants outermost, then workloads, then thresholds,
/// then axis points innermost.
struct CampaignJob {
  std::size_t index = 0;
  std::size_t workload_index = 0;
  std::string kernel;
  std::size_t variant_index = 0;
  std::string variant_label;
  double axis_value = 0.0;
  RunSpec spec = RunSpec::at_error_rate(0.0);
  /// Workload::fp_op_count() of the job's workload (0 = unknown): the
  /// job's cost estimate for dispatch_order().
  std::uint64_t fp_op_count = 0;
};

/// The order in which CampaignEngine::run dispatches `jobs`: longest first
/// by fp_op_count, ties (and unknown counts, which go last) by index, so
/// the costliest jobs do not start last and leave workers idle. Results,
/// seeds and journal entries are keyed by job index, so only the row order
/// of a journal shows the dispatch order.
[[nodiscard]] std::vector<std::size_t> dispatch_order(
    const std::vector<CampaignJob>& jobs);

/// Outcome of one job. ok == false means the run threw (`error` holds the
/// exception text and `report` is default-constructed) or, with a job
/// timeout configured, that the job blew its wall-clock budget.
struct JobResult {
  CampaignJob job;
  KernelRunReport report;
  bool ok = false;
  std::string error;
  /// Runs attempted before this result was accepted (1 = first try; up to
  /// CampaignRunOptions::max_attempts for jobs that kept throwing).
  int attempts = 1;
  /// The job exceeded CampaignRunOptions::job_timeout_ms. The timeout is
  /// cooperative (checked when the run returns — a worker thread cannot be
  /// preempted safely), and timed-out jobs are not retried.
  bool timed_out = false;
  double wall_ms = 0.0;
};

/// Supervision counters of a process- or remote-isolated campaign (all zero
/// under thread isolation). Mirrored into the campaign.worker_* /
/// campaign.remote_* telemetry instruments when metrics are on.
struct WorkerPoolStats {
  std::uint64_t spawns = 0;        ///< worker processes forked (incl. respawns)
  std::uint64_t crashes = 0;       ///< workers that died mid-job (signal, exit,
                                   ///< silent clean exit, or lost connection)
  std::uint64_t respawns = 0;      ///< replacement workers forked after a crash
  std::uint64_t redispatches = 0;  ///< in-flight jobs re-dispatched after a
                                   ///< crash under the retry budget
  std::uint64_t timeout_kills = 0; ///< workers SIGKILLed (or disconnected, for
                                   ///< remote workers) for blowing the hard
                                   ///< per-job timeout
  // Remote (TCP) fabric counters, zero unless IsolationMode::kRemote.
  std::uint64_t remote_connects = 0;    ///< workerd registrations accepted
  std::uint64_t remote_disconnects = 0; ///< connections lost (EOF/reset)
  std::uint64_t remote_rejects = 0;     ///< handshakes rejected (bad magic,
                                        ///< version/campaign mismatch, or
                                        ///< handshake timeout)
  std::uint64_t remote_keepalive_pings = 0; ///< liveness probes sent to idle
                                            ///< socket workers
  std::uint64_t remote_keepalive_drops = 0; ///< connections reclaimed as
                                            ///< half-open: a missed pong, or
                                            ///< a dispatch never acknowledged
                                            ///< within the keepalive budget
  std::uint64_t remote_drains = 0;          ///< workerd goodbye frames
                                            ///< (graceful SIGTERM drains)
};

/// All job results, ordered by CampaignJob::index regardless of which
/// worker finished when.
struct CampaignResult {
  std::vector<JobResult> jobs;
  double wall_ms = 0.0; ///< whole-campaign wall time
  int workers = 1;      ///< worker threads/processes actually used
  /// Jobs restored from a resume journal instead of re-executed.
  std::size_t resumed_jobs = 0;
  /// Process-pool supervision counters (zero under thread isolation).
  WorkerPoolStats worker_stats;

  /// First artifact-durability failure of the run (empty = none): a
  /// journal append or checkpoint that could not be made durable, real or
  /// --inject-fs-injected. The campaign itself finishes — the results are
  /// still in memory and the final artifacts may still land — but callers
  /// must surface this as a distinct nonzero exit (tmemo_sim exits 3),
  /// because the on-disk journal can no longer be trusted for resume.
  std::string artifact_error;

  /// Merged telemetry over every ok job (empty unless SweepSpec::metrics).
  /// Bit-identical for any worker count: all instruments are uint64 and
  /// merge commutatively (see telemetry/metrics.hpp).
  telemetry::MetricsSnapshot metrics;
  /// Job 0's event timeline (null unless SweepSpec::timeline and job 0 ran).
  std::shared_ptr<const telemetry::Timeline> timeline;

  [[nodiscard]] std::size_t failed() const noexcept;
  [[nodiscard]] bool all_ok() const noexcept { return failed() == 0; }
  /// Every job ran and its host verification passed.
  [[nodiscard]] bool all_passed() const noexcept;
};

/// A parsed job-result journal: the fingerprint of the campaign it belongs
/// to plus the completed entries it holds (only JobResult::job.index plus
/// the measured fields are meaningful; the rest of the CampaignJob is
/// re-derived from the spec on resume).
struct CampaignJournal {
  std::string fingerprint;
  std::vector<JobResult> entries;
  /// Records dropped because they failed to parse — the torn-write case: a
  /// crash mid-append leaves a trailing partial line. Resume tolerates (and
  /// callers should log) these instead of failing the whole campaign.
  /// Always 0 for sealed journals, whose reader throws instead.
  std::size_t malformed_rows = 0;
  /// The journal carried the "sealed" header mark and a record-count end
  /// sentinel that verified: it is a *complete* artifact (a merge output or
  /// a checkpoint), not an append log, so truncation anywhere is an error
  /// rather than a tolerated torn tail.
  bool sealed = false;
};

/// How campaign jobs are isolated from each other and from the engine.
enum class IsolationMode {
  /// Jobs run on in-process worker threads (the default): fastest, but a
  /// segfault/abort()/OOM-kill in one job takes the whole campaign with it.
  kThread,
  /// Jobs run in forked worker processes supervised over a pipe protocol
  /// (sim/worker_proc.hpp): a hard fault in one job becomes a failed
  /// JobResult with the decoded cause while every other job completes, and
  /// the job timeout becomes a hard SIGKILL. Results are bit-identical to
  /// thread isolation (wall_ms aside). POSIX only.
  kProcess,
  /// Jobs run in remote tmemo_workerd processes that connect over TCP
  /// (src/net/, docs/DISTRIBUTED.md). The supervisor listens on
  /// CampaignRunOptions::listen_address and multiplexes socket workers
  /// (plus optional local forked workers) in one poll() loop; a lost
  /// connection maps into the crash taxonomy exactly like a dead forked
  /// worker. Results stay bit-identical to thread isolation because only
  /// (job index, attempt) crosses the wire. POSIX only.
  kRemote,
};

[[nodiscard]] constexpr std::string_view isolation_mode_name(
    IsolationMode m) noexcept {
  switch (m) {
    case IsolationMode::kThread: return "thread";
    case IsolationMode::kProcess: return "process";
    case IsolationMode::kRemote: return "remote";
  }
  return "unknown";
}

/// Crash-safety and partial-failure options for CampaignEngine::run.
struct CampaignRunOptions {
  /// Deterministic bounded retry: a throwing job is re-run (same seed, same
  /// inputs) up to this many times; JobResult::attempts records the count.
  /// Under process isolation the budget also covers worker crashes: a job
  /// whose worker died is re-dispatched until the budget is spent.
  int max_attempts = 1;
  /// Per-job wall-clock budget in ms; 0 disables. Under thread isolation
  /// the check is cooperative (evaluated when the run returns, so a wedged
  /// job still occupies its worker); under process isolation it is hard
  /// (the worker is SIGKILLed and the job marked timed_out). Timed-out
  /// jobs are never retried. Because the classification depends on wall
  /// time, enabling a timeout trades the bit-identical-for-any-worker-count
  /// guarantee for liveness.
  double job_timeout_ms = 0.0;
  /// Worker isolation model; kThread is the historical in-process pool.
  IsolationMode isolation = IsolationMode::kThread;
  /// Deterministic worker-crash injection (process isolation only): proves
  /// crash containment in tests/CI. Ignored under thread isolation.
  std::optional<inject::WorkerCrashInjection> inject_worker_crash;
  /// Remote isolation only: "HOST:PORT" the supervisor listens on for
  /// tmemo_workerd registrations (e.g. "127.0.0.1:7777"). Required under
  /// kRemote unless `listener` is provided.
  std::string listen_address;
  /// Remote isolation only: a pre-opened listener (tests and benches bind
  /// port 0 to get an OS-chosen port, fork their workers, then hand the
  /// listener in). Not owned; must outlive the run. Overrides
  /// listen_address.
  net::Listener* listener = nullptr;
  /// Remote isolation only: forked pipe workers to run alongside the socket
  /// workers in the same supervisor loop (0 = serve remote workers only).
  int remote_local_workers = 0;
  /// Remote isolation only: idle socket workers are pinged every this many
  /// ms (0 disables liveness probing) and must pong within
  /// keepalive_timeout_ms. A miss marks the connection half-open — the
  /// peer is gone but no FIN/RST ever arrived — and folds it into the
  /// disconnect taxonomy; likewise a dispatched job whose kJobStarted
  /// heartbeat never arrives within interval+timeout is reclaimed and
  /// re-dispatched under the retry budget.
  int keepalive_interval_ms = 2000;
  /// Remote isolation only: how long a pinged worker has to pong.
  int keepalive_timeout_ms = 2000;
  /// Deterministic network fault injection on the supervisor's outgoing
  /// frames to socket workers (--inject-net; net/fault.hpp grammar).
  /// Remote isolation only; exists to chaos-test the fabric.
  std::optional<net::NetFaultSpec> inject_net;
  /// Append-only journal path; empty disables journaling. Every finished
  /// job is serialized and flushed as one RFC-4180 CSV record, so a killed
  /// campaign loses at most the in-flight jobs. A fresh (empty/missing)
  /// file gets a header line carrying campaign_fingerprint(spec).
  std::string journal_path;
  /// Journal checkpoint/compaction cadence: after every N successful
  /// appends the completed-job set is snapshotted into a sealed
  /// `<journal>.checkpoint` artifact (written atomically) and the live
  /// journal is compacted back to its header, so resuming a huge campaign
  /// replays checkpoint + bounded tail instead of the full append log —
  /// bit-identically (read_campaign_journal_with_checkpoint). 0 disables.
  std::size_t checkpoint_every = 0;
  /// Deterministic filesystem fault injection on journal appends and
  /// checkpoint commits (--inject-fs; io/fs_fault.hpp grammar). A fault
  /// surfaces as CampaignResult::artifact_error, never as silent success.
  std::optional<io::FsFaultSpec> inject_fs;
  /// Completed jobs from a previous run (read_campaign_journal). Indices of
  /// journaled *ok* entries are skipped — the result is restored
  /// bit-identically — while journaled failures (a crashed worker, an
  /// exhausted retry budget) are re-executed, so resuming a campaign after
  /// fixing its environment heals it. The fingerprint must match the spec
  /// being run. Metrics/timeline campaigns cannot be resumed (snapshots are
  /// not journaled).
  std::optional<CampaignJournal> resume;
};

class CampaignEngine {
 public:
  /// `jobs` = worker-thread count; <= 0 selects hardware concurrency.
  explicit CampaignEngine(int jobs = 0);

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Expands the grid without running it. Throws std::invalid_argument when
  /// a kernel filter entry matches no workload.
  [[nodiscard]] static std::vector<CampaignJob> expand(const SweepSpec& spec);

  /// Runs the whole campaign.
  [[nodiscard]] CampaignResult run(const SweepSpec& spec) const {
    return run(spec, CampaignRunOptions{});
  }

  /// Runs the whole campaign with crash-safety options (retry, timeout,
  /// journaling, resume).
  [[nodiscard]] CampaignResult run(const SweepSpec& spec,
                                   const CampaignRunOptions& options) const;

 private:
  int jobs_;
};

/// Journal-v2 schema tag: first field of a journal's header record. v2
/// appended the "end" sentinel field to every record (torn-write detection
/// inside the final field); v1 journals are rejected by the header check
/// rather than half-parsed. Shared by the engine's journal writer, the
/// workerd shards, and tmemo_journal merge.
inline constexpr std::string_view kCampaignJournalSchema = "tmemo-journal-v2";

/// First field of the end-sentinel record that seals a complete journal
/// artifact (merge output, checkpoint): "tmemo-journal-end,<record count>".
/// A sealed journal (header's third field is "sealed") must close with this
/// record, newline-terminated and count-matched, so *every* byte truncation
/// of the artifact is rejected on read — the journal twin of the CSV grid's
/// io::verify_artifact_footer.
inline constexpr std::string_view kCampaignJournalEndRecord =
    "tmemo-journal-end";

/// Marker appended to the header record of sealed journal artifacts.
inline constexpr std::string_view kCampaignJournalSealedMark = "sealed";

/// Stable identity of a campaign grid (axis, scale, seed, kernels,
/// thresholds, variant labels): a journal written for one spec refuses to
/// resume another. Variant labels — not their configs — enter the
/// fingerprint, so keep ablation labels unique.
[[nodiscard]] std::string campaign_fingerprint(const SweepSpec& spec);

/// 64-bit identity of a campaign for the remote-worker handshake
/// (net/frame.hpp HelloFrame::campaign_digest): the fingerprint text plus
/// the variant *configurations* — a remote worker rebuilds the spec from
/// its own flags, so config drift (say, a differing --lut-depth) must be
/// caught at registration, not discovered as silently different grids.
[[nodiscard]] std::uint64_t campaign_wire_digest(const SweepSpec& spec);

/// Torn-write-safe append-only journal writer: each row is written with one
/// write(2) and fsynced before append() returns, so a host crash loses at
/// most the row in flight. Used by CampaignEngine for the campaign journal
/// and by tmemo_workerd for its local shard (both produce the same
/// journal-v2 format; tmemo_journal merge folds shards back together).
class CampaignJournalWriter {
 public:
  CampaignJournalWriter() = default;
  ~CampaignJournalWriter();
  CampaignJournalWriter(const CampaignJournalWriter&) = delete;
  CampaignJournalWriter& operator=(const CampaignJournalWriter&) = delete;

  /// Enables checkpoint/compaction (every `checkpoint_every` appends; 0
  /// disables) and, optionally, --inject-fs fault injection on appends and
  /// checkpoint commits. Must be called before open().
  void configure(std::size_t checkpoint_every,
                 const std::optional<io::FsFaultSpec>& inject_fs);

  /// Opens `path` for appending. A fresh (missing/empty) file gets the
  /// journal-v2 header carrying `fingerprint`; an existing file has a torn
  /// trailing record truncated away so the next append starts on a record
  /// boundary. With checkpointing configured, the completed-job set is
  /// reloaded from `<path>.checkpoint` plus the live tail so the next
  /// snapshot stays complete. Throws via TM_REQUIRE on open/truncate
  /// failure and io::IoError on a bad checkpoint.
  void open(const std::string& path, const std::string& fingerprint);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

  /// Appends one finished job (serialize_job_result), write+fsync. Throws
  /// io::IoError on an injected fault and std::invalid_argument (via
  /// TM_REQUIRE) on a real write/fsync failure; after a throw the writer
  /// closes itself — the journal on disk stays readable (a torn tail at
  /// worst) but must not receive further appends.
  void append(const JobResult& result);

  /// Checkpoints appended since open (for reporting).
  [[nodiscard]] std::size_t checkpoints_written() const noexcept {
    return checkpoints_written_;
  }

  void close();

 private:
  void append_raw(const std::string& row);
  /// Snapshots the completed-job set into the sealed checkpoint artifact
  /// (atomic temp→fsync→rename), then compacts the live journal back to
  /// its header. Throws io::IoError on failure; the live journal is only
  /// truncated after the checkpoint is durable, so every crash window
  /// resumes bit-identically to full replay.
  void write_checkpoint();

  int fd_ = -1;
  std::string path_;
  std::string fingerprint_;
  /// Byte length of the header record; compaction truncates back to this.
  std::uint64_t header_bytes_ = 0;
  std::size_t checkpoint_every_ = 0;
  std::size_t appends_since_checkpoint_ = 0;
  std::size_t checkpoints_written_ = 0;
  std::optional<io::FsFaultSpec> inject_fs_;
  io::FsFaultInjector injector_;
  /// Winning serialized record per job index (later appends overwrite
  /// earlier ones, matching full-replay resume semantics). Only populated
  /// when checkpointing is configured.
  std::map<std::size_t, std::string> rows_;
};

/// The checkpoint artifact that sits beside a checkpointed journal.
[[nodiscard]] std::string campaign_checkpoint_path(
    const std::string& journal_path);

/// Reads a journal produced by a journaling run. For an append journal,
/// tolerates a truncated final record (the crash case); malformed rows are
/// skipped and counted. For a *sealed* journal artifact (header marked
/// "sealed": merge outputs, checkpoints) the tolerance inverts: any torn,
/// malformed, missing-end-sentinel or count-mismatched state throws, so no
/// byte truncation can pass as a smaller-but-complete journal. Throws
/// std::runtime_error when the header is missing, unrecognized, or torn.
[[nodiscard]] CampaignJournal read_campaign_journal(std::istream& in);

/// Reads the resumable state of a (possibly checkpointed) journal at
/// `path`: the sealed `<path>.checkpoint` artifact first, when present
/// (verified strictly — a corrupt checkpoint throws), then the live tail
/// at `path` with the usual torn-tolerance; tail entries come last so
/// resume's later-entry-wins rule reproduces full-journal replay
/// bit-identically. The two files must agree on the fingerprint.
[[nodiscard]] CampaignJournal read_campaign_journal_with_checkpoint(
    const std::string& path);

/// Reads one RFC-4180 CSV record (quoted fields may span lines) from `in`
/// into `fields`. Returns false at end of input. Exposed for tests of the
/// quoting round-trip.
[[nodiscard]] bool read_csv_record(std::istream& in,
                                   std::vector<std::string>& fields);

/// Serializes one JobResult as a journal CSV record (trailing '\n'
/// included). Every numeric field uses round-trippable formatting, so
/// parse_job_result restores it bit-identically. This row format doubles as
/// the worker pipe protocol's result payload (sim/worker_proc.cpp).
[[nodiscard]] std::string serialize_job_result(const JobResult& result);

/// Restores a JobResult from the fields of one journal record. Only
/// job.index and the measured fields are restored (the caller re-derives
/// the rest of the CampaignJob from the spec). Returns false on any
/// malformed or missing field.
[[nodiscard]] bool parse_job_result(const std::vector<std::string>& fields,
                                    JobResult& out);

/// Writes one row per job: identity, operating point, seed, measurements,
/// verification, wall time, status.
void write_campaign_csv(const CampaignResult& result, std::ostream& out);

/// Writes the whole campaign as a single JSON object
/// (schema "tmemo-campaign-v1"), round-trippable doubles.
void write_campaign_json(const CampaignResult& result, std::ostream& out);

} // namespace tmemo

// Loopback end-to-end tests of the distributed campaign fabric
// (docs/DISTRIBUTED.md): the supervisor binds an OS-chosen port via
// CampaignRunOptions::listener and fork()ed children run net::run_workerd
// directly — they inherit the test's WorkloadFactory through the address
// space, exactly like forked local workers. Covers the fabric's
// acceptance checks: a remote campaign is bit-identical to thread isolation, a
// worker killed mid-job maps into the crash taxonomy and its job is
// redispatched, a mismatched registration is rejected by name, local
// forked workers share the supervisor loop, and metrics cross the TCP
// fabric exactly.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/pod_io.hpp"
#include "inject/worker_crash.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "net/workerd.hpp"
#include "sim/campaign.hpp"
#include "sim/worker_proc.hpp"
#include "workloads/haar.hpp"
#include "workloads/workload.hpp"

namespace tmemo {
namespace {

SweepSpec haar_spec(int points = 3) {
  SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<HaarWorkload>(128));
    return v;
  };
  spec.axis = SweepAxis::error_rate(0.0, 0.04, points);
  return spec;
}

/// HaarWorkload(128) that runs `gate` before every job. Three Haar-128 jobs
/// finish in milliseconds, so one worker can end the campaign before a
/// second one has even registered; a test that asserts on who joined must
/// hold the jobs until that has happened. Forked workers share no memory
/// with the test, so gates talk through files.
class GatedHaarWorkload final : public Workload {
 public:
  explicit GatedHaarWorkload(std::function<void()> gate)
      : gate_(std::move(gate)) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::string input_parameter() const override {
    return inner_.input_parameter();
  }
  [[nodiscard]] float table1_threshold() const override {
    return inner_.table1_threshold();
  }
  [[nodiscard]] bool error_tolerant() const override {
    return inner_.error_tolerant();
  }
  [[nodiscard]] double verify_tolerance() const override {
    return inner_.verify_tolerance();
  }
  [[nodiscard]] std::uint64_t fp_op_count() const override {
    return inner_.fp_op_count();
  }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override {
    gate_();
    return inner_.run(device);
  }

 private:
  HaarWorkload inner_{128};
  std::function<void()> gate_;
};

SweepSpec gated_haar_spec(std::function<void()> gate, int points = 3) {
  SweepSpec spec = haar_spec(points);
  spec.factory = [gate = std::move(gate)] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<GatedHaarWorkload>(gate));
    return v;
  };
  return spec;
}

/// Waits until `done()` holds, for at most 10 s: a gate that never opens
/// fails the test's assertions instead of hanging it.
void wait_until(const std::function<bool()>& done) {
  for (int i = 0; i < 10000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A fresh, empty marker directory private to this test process.
std::string marker_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tmemo_gate_" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t count_files(const std::string& dir) {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

void touch(const std::string& path) { std::ofstream(path).put('1'); }

/// CSV with the wall-clock column (and optionally the attempts column, for
/// crash-redispatch runs) blanked, for bit-identity comparisons.
std::string comparable_csv(const CampaignResult& res,
                           bool blank_attempts = false) {
  std::ostringstream raw;
  write_campaign_csv(res, raw);
  std::istringstream in(raw.str());
  std::ostringstream out;
  std::vector<std::string> fields;
  while (read_csv_record(in, fields)) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields.size() > 19 && i == 19) fields[i].clear(); // wall_ms
      if (blank_attempts && fields.size() > 18 && i == 18) {
        fields[i].clear(); // attempts
      }
      out << (i == 0 ? "" : ",") << fields[i];
    }
    out << '\n';
  }
  return out.str();
}

/// Child exit codes, so waitpid can distinguish the workerd outcomes.
enum : int {
  kWorkerOk = 0,         ///< campaign complete (supervisor's goodbye)
  kWorkerFailed = 1,     ///< setup/protocol failure
  kWorkerRejected = 3,   ///< registration rejected
  kWorkerDrained = 4,    ///< graceful SIGTERM drain
  kWorkerLost = 5,       ///< connection lost (reconnect budget exhausted)
  kWorkerReconnected = 6 ///< campaign complete after >= 1 reconnect
};

/// The forked child's drain flag (fork gives each child its own copy,
/// always starting at 0 — the parent never raises it).
volatile std::sig_atomic_t g_child_drain = 0;

void child_on_sigterm(int) { g_child_drain = 1; }

/// Forks a child that serves `spec` against the loopback supervisor and
/// exits with one of the codes above (or dies by an injected signal). The
/// child drains on SIGTERM exactly like the tmemo_workerd binary. The
/// child closes its inherited copy of the listening socket first: a real
/// workerd is a separate process that never holds the supervisor's
/// listener, and the leaked fd would keep the port bound after the
/// supervisor closes it (see the reconnect test).
///
/// When `exit_marker` is non-empty the child creates that file once
/// run_workerd returns, just before it exits.
pid_t fork_workerd(const SweepSpec& spec, net::Listener& listener,
                   const net::WorkerdOptions& extra = {},
                   const std::string& exit_marker = "") {
  const std::uint16_t port = listener.bound_port();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  listener.close_listener();
  struct sigaction sa = {};
  sa.sa_handler = child_on_sigterm;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  // Regression guard: run_workerd must survive writes to a vanished
  // supervisor on its own (ScopedIgnoreSigpipe); the harness leaves the
  // default (fatal) disposition in place to prove it.
  ::signal(SIGPIPE, SIG_DFL);
  net::WorkerdOptions options = extra;
  options.connect = {"127.0.0.1", port};
  options.drain_flag = &g_child_drain;
  const net::WorkerdOutcome outcome = net::run_workerd(spec, options);
  if (!exit_marker.empty()) touch(exit_marker);
  if (outcome.ok) {
    if (outcome.drained) ::_exit(kWorkerDrained);
    ::_exit(outcome.reconnects > 0 ? kWorkerReconnected : kWorkerOk);
  }
  if (outcome.error.find("rejected") != std::string::npos) {
    ::_exit(kWorkerRejected);
  }
  ::_exit(outcome.connection_lost ? kWorkerLost : kWorkerFailed);
}

/// Forks a protocol-level workerd that sends its registration and then
/// SIGSTOPs itself — a worker frozen in the registered-but-silent window,
/// exactly the half-open shape the keepalive deadline exists for. The
/// parent syncs on the stop (waitpid WUNTRACED), so the frozen worker's
/// hello is guaranteed to be first in the supervisor's accept queue; after
/// SIGCONT the child simply exits 0.
pid_t fork_sigstopped_worker(const SweepSpec& spec, net::Listener& listener) {
  const std::uint16_t port = listener.bound_port();
  const pid_t pid = ::fork();
  if (pid != 0) {
    int status = 0;
    while (::waitpid(pid, &status, WUNTRACED) < 0 && errno == EINTR) {
    }
    EXPECT_TRUE(WIFSTOPPED(status)) << "frozen worker never stopped";
    return pid;
  }
  listener.close_listener();
  std::string error;
  const int fd = net::connect_to({"127.0.0.1", port}, 5000, error);
  if (fd < 0) ::_exit(kWorkerFailed);
  net::HelloFrame hello;
  hello.campaign_digest = campaign_wire_digest(spec);
  hello.job_count =
      static_cast<std::uint64_t>(CampaignEngine::expand(spec).size());
  if (!net::write_frame(fd, net::encode_hello(hello))) {
    ::_exit(kWorkerFailed);
  }
  ::raise(SIGSTOP);
  ::_exit(kWorkerOk);
}

/// Clears O_NONBLOCK on a fd accepted by net::Listener, so the fake
/// supervisors below can use the blocking frame I/O helpers.
bool make_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == 0;
}

/// Polls the (nonblocking) listener until a connection arrives, returning
/// a blocking fd, or -1 after ~5s.
int await_connection(net::Listener& listener) {
  for (int i = 0; i < 5000; ++i) {
    const int fd = listener.accept_one();
    if (fd >= 0) return make_blocking(fd) ? fd : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

CampaignRunOptions remote_options(net::Listener& listener) {
  CampaignRunOptions options;
  options.isolation = IsolationMode::kRemote;
  options.listener = &listener;
  return options;
}

// -- Bit-identity across the TCP fabric (ISSUE acceptance) --------------------

TEST(RemoteIsolation, GridIsBitIdenticalToThreadIsolation) {
  const CampaignResult threads =
      CampaignEngine(2).run(haar_spec(), CampaignRunOptions{});

  // Each worker marks its first job and then holds it until the other
  // worker holds one too, so both must register before the campaign ends.
  const std::string holders = marker_dir("holders");
  const SweepSpec spec = gated_haar_spec([holders] {
    touch(holders + "/" + std::to_string(::getpid()));
    wait_until([&holders] { return count_files(holders) >= 2; });
  });

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  const pid_t a = fork_workerd(spec, listener);
  const pid_t b = fork_workerd(spec, listener);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, remote_options(listener));

  EXPECT_EQ(wait_exit_code(a), kWorkerOk);
  EXPECT_EQ(wait_exit_code(b), kWorkerOk);
  ASSERT_EQ(remote.jobs.size(), threads.jobs.size());
  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(comparable_csv(remote), comparable_csv(threads));
  EXPECT_EQ(remote.worker_stats.remote_connects, 2u);
  EXPECT_EQ(remote.worker_stats.remote_rejects, 0u);
  EXPECT_EQ(remote.worker_stats.crashes, 0u);
  std::filesystem::remove_all(holders);
}

// -- Crash taxonomy over TCP --------------------------------------------------

TEST(RemoteIsolation, WorkerKilledMidJobIsRedispatchedElsewhere) {
  const SweepSpec spec = haar_spec(5);
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  // Both workers carry the same injection: whichever is dispatched job 1
  // first dies by SIGSEGV (attempt 1 only), the lost connection must become
  // a crash + redispatch, and the survivor completes the campaign alone —
  // the redispatch arrives as attempt 2, which the injection spares.
  net::WorkerdOptions crashing;
  crashing.inject_crash = inject::WorkerCrashInjection::parse("1:segv:1");
  ASSERT_TRUE(crashing.inject_crash.has_value());
  const pid_t a = fork_workerd(spec, listener, crashing);
  const pid_t b = fork_workerd(spec, listener, crashing);

  CampaignRunOptions options = remote_options(listener);
  options.max_attempts = 2;
  const CampaignResult remote = CampaignEngine(2).run(spec, options);

  const int code_a = wait_exit_code(a);
  const int code_b = wait_exit_code(b);
  EXPECT_TRUE((code_a == 128 + SIGSEGV && code_b == kWorkerOk) ||
              (code_a == kWorkerOk && code_b == 128 + SIGSEGV))
      << "exit codes: " << code_a << ", " << code_b;
  EXPECT_TRUE(remote.all_ok());
  EXPECT_GE(remote.worker_stats.crashes, 1u);
  EXPECT_GE(remote.worker_stats.redispatches, 1u);
  EXPECT_GE(remote.worker_stats.remote_disconnects, 1u);
  // Attempts differ (the crash consumed one), wall time always does;
  // every measured field must still match thread isolation exactly.
  EXPECT_EQ(comparable_csv(remote, /*blank_attempts=*/true),
            comparable_csv(threads, /*blank_attempts=*/true));
}

// -- Registration handshake ---------------------------------------------------

TEST(RemoteIsolation, MismatchedCampaignIsRejectedAtRegistration) {
  // The good worker holds its jobs until the impostor has its rejection in
  // hand, so the campaign cannot end with the impostor still unanswered.
  const std::string dir = marker_dir("rejected");
  const std::string rejected = dir + "/impostor";
  const SweepSpec spec = gated_haar_spec([rejected] {
    wait_until([&rejected] { return std::filesystem::exists(rejected); });
  });
  // Same job count, different grid: only the campaign digest can tell the
  // impostor apart.
  SweepSpec drifted = haar_spec();
  drifted.axis = SweepAxis::error_rate(0.0, 0.05, 3);

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  const pid_t impostor = fork_workerd(drifted, listener, {}, rejected);
  const pid_t good = fork_workerd(spec, listener);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, remote_options(listener));

  EXPECT_EQ(wait_exit_code(impostor), kWorkerRejected);
  EXPECT_EQ(wait_exit_code(good), kWorkerOk);
  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(remote.worker_stats.remote_rejects, 1u);
  EXPECT_EQ(remote.worker_stats.remote_connects, 1u);
  std::filesystem::remove_all(dir);
}

// -- Mixed local + remote workers ---------------------------------------------

TEST(RemoteIsolation, LocalForkedWorkersShareTheSupervisorLoop) {
  const SweepSpec spec = haar_spec();
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  // No remote worker ever connects; one local forked worker joins the same
  // poll() loop and serves the whole campaign.
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  CampaignRunOptions options = remote_options(listener);
  options.remote_local_workers = 1;
  const CampaignResult remote = CampaignEngine(2).run(spec, options);

  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(remote.worker_stats.remote_connects, 0u);
  EXPECT_GE(remote.worker_stats.spawns, 1u);
  EXPECT_EQ(comparable_csv(remote), comparable_csv(threads));
}

TEST(RemoteIsolation, LocalSlotCrashIsDecodedInsideARemoteCampaign) {
  // No remote worker ever connects; the one local forked worker dies by
  // SIGSEGV on job 1 and its wait status is decoded into the job's error
  // while the replacement finishes the other jobs.
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  CampaignRunOptions options = remote_options(listener);
  options.remote_local_workers = 1;
  options.inject_worker_crash = inject::WorkerCrashInjection::parse("1:segv");
  const CampaignResult remote = CampaignEngine(2).run(haar_spec(), options);

  ASSERT_EQ(remote.jobs.size(), 3u);
  EXPECT_TRUE(remote.jobs[0].ok);
  EXPECT_FALSE(remote.jobs[1].ok);
  EXPECT_NE(remote.jobs[1].error.find("SIGSEGV"), std::string::npos)
      << remote.jobs[1].error;
  EXPECT_TRUE(remote.jobs[2].ok);
  EXPECT_EQ(remote.worker_stats.remote_connects, 0u);
  EXPECT_EQ(remote.worker_stats.crashes, 1u);
}

// -- The shared over-budget verdict under supervision -------------------------

/// A protocol-level workerd for a test thread: registers, answers every
/// dispatch with the job's real result (run_job) but a reported wall_ms of
/// `wall_ms`, and returns true once the supervisor says goodbye.
bool serve_reporting_wall_ms(const SweepSpec& spec, std::uint16_t port,
                             double wall_ms) {
  std::string error;
  const int fd = net::connect_to({"127.0.0.1", port}, 5000, error);
  if (fd < 0) return false;
  const std::vector<CampaignJob> jobs = CampaignEngine::expand(spec);
  net::HelloFrame hello;
  hello.campaign_digest = campaign_wire_digest(spec);
  hello.job_count = static_cast<std::uint64_t>(jobs.size());
  std::string payload;
  net::HelloAckFrame ack;
  bool ok = net::write_frame(fd, net::encode_hello(hello)) &&
            net::read_frame(fd, payload) &&
            net::decode_hello_ack(payload, ack) && ack.accepted == 1;
  WorkerWorkloads workloads = build_worker_workloads(spec);
  net::JobDispatchFrame dispatch;
  while (ok && net::read_frame(fd, payload) &&
         net::decode_dispatch(payload, dispatch) &&
         net::write_frame(fd,
                          net::encode_event(net::kJobStarted, dispatch.job))) {
    JobResult res = run_job(spec, jobs, static_cast<std::size_t>(dispatch.job),
                            dispatch.start_attempt, ack.max_attempts,
                            std::nullopt, workloads);
    res.wall_ms = wall_ms;
    std::ostringstream body;
    write_sized_string(body, serialize_job_result(res));
    write_pod(body, std::uint8_t{0}); // no metrics snapshot
    ok = net::write_frame(fd,
                          net::encode_result_frame(dispatch.job, body.str()));
  }
  ok = ok && net::peek_frame_type(payload) == net::kGoodbye;
  ::close(fd);
  return ok;
}

TEST(RemoteIsolation, OverBudgetResultGetsTheSharedTimeoutVerdict) {
  // Workers never see the budget: the supervisor must discard a finished
  // but over-budget result exactly as a worker thread does, with the
  // budget printed shortest round-trip.
  const SweepSpec spec = haar_spec(1);
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  bool served = false;
  std::thread worker([&] {
    served = serve_reporting_wall_ms(spec, listener.bound_port(), 2e6);
  });
  CampaignRunOptions options = remote_options(listener);
  options.job_timeout_ms = 1234567.5;
  const CampaignResult res = CampaignEngine(1).run(spec, options);
  worker.join();

  EXPECT_TRUE(served);
  ASSERT_EQ(res.jobs.size(), 1u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_TRUE(res.jobs[0].timed_out);
  EXPECT_EQ(res.jobs[0].error, "job exceeded 1234567.5 ms timeout");
  EXPECT_TRUE(res.jobs[0].report.kernel.empty());
  EXPECT_EQ(res.worker_stats.timeout_kills, 0u);
}

// -- Telemetry across the TCP fabric ------------------------------------------

TEST(RemoteIsolation, MetricsSnapshotsCrossTheWireExactly) {
  SweepSpec spec = haar_spec();
  spec.metrics = true;
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  const pid_t a = fork_workerd(spec, listener);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, remote_options(listener));
  EXPECT_EQ(wait_exit_code(a), kWorkerOk);

  // Every simulator-side instrument merges to the same value; the remote
  // campaign only adds its campaign.worker_* / campaign.remote_* counters.
  for (const auto& c : threads.metrics.counters) {
    const auto* other = remote.metrics.find_counter(c.name);
    ASSERT_NE(other, nullptr) << c.name;
    EXPECT_EQ(other->value, c.value) << c.name;
  }
  for (const auto& h : threads.metrics.histograms) {
    const auto* other = remote.metrics.find_histogram(h.name);
    ASSERT_NE(other, nullptr) << h.name;
    EXPECT_EQ(other->buckets, h.buckets) << h.name;
    EXPECT_EQ(other->sum, h.sum) << h.name;
  }
  const auto* connects = remote.metrics.find_counter("campaign.remote_connects");
  ASSERT_NE(connects, nullptr);
  EXPECT_EQ(connects->value, 1u);
  EXPECT_EQ(threads.metrics.find_counter("campaign.remote_connects"), nullptr);
}

// -- Journal shards -----------------------------------------------------------

TEST(RemoteIsolation, WorkerdShardMergesIntoAResumableJournal) {
  const SweepSpec spec = haar_spec();
  const std::string shard_path =
      ::testing::TempDir() + "tmemo_remote_shard.journal";
  std::remove(shard_path.c_str());

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  net::WorkerdOptions journaling;
  journaling.journal_path = shard_path;
  const pid_t a = fork_workerd(spec, listener, journaling);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, remote_options(listener));
  EXPECT_EQ(wait_exit_code(a), kWorkerOk);
  ASSERT_TRUE(remote.all_ok());

  // The shard is an ordinary journal-v2 file for this campaign: resuming
  // from it restores every entry bit-identically instead of re-running.
  std::ifstream in(shard_path);
  ASSERT_TRUE(in.good()) << shard_path;
  CampaignJournal shard = read_campaign_journal(in);
  EXPECT_EQ(shard.fingerprint, campaign_fingerprint(spec));
  EXPECT_EQ(shard.entries.size(), remote.jobs.size());

  CampaignRunOptions resuming;
  resuming.resume = std::move(shard);
  const CampaignResult resumed = CampaignEngine(2).run(spec, resuming);
  EXPECT_EQ(resumed.resumed_jobs, remote.jobs.size());
  EXPECT_EQ(comparable_csv(resumed), comparable_csv(remote));
  std::remove(shard_path.c_str());
}

// -- Liveness keepalive (half-open connections) -------------------------------

CampaignRunOptions keepalive_options(net::Listener& listener) {
  CampaignRunOptions options = remote_options(listener);
  options.keepalive_interval_ms = 100;
  options.keepalive_timeout_ms = 200;
  options.max_attempts = 2;
  return options;
}

TEST(RemoteKeepalive, SigstoppedWorkerIsReclaimedByTheLivenessDeadline) {
  const SweepSpec spec = haar_spec(3);
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  // The frozen worker registers first, so the supervisor dispatches it a
  // job that will never be acknowledged; the healthy workerd must inherit
  // that job through the no-heartbeat deadline and finish the campaign.
  const pid_t frozen = fork_sigstopped_worker(spec, listener);
  const pid_t healthy = fork_workerd(spec, listener);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, keepalive_options(listener));

  EXPECT_EQ(wait_exit_code(healthy), kWorkerOk);
  ::kill(frozen, SIGCONT);
  EXPECT_EQ(wait_exit_code(frozen), kWorkerOk);

  EXPECT_TRUE(remote.all_ok());
  EXPECT_GE(remote.worker_stats.remote_keepalive_drops, 1u);
  EXPECT_GE(remote.worker_stats.remote_disconnects, 1u);
  EXPECT_GE(remote.worker_stats.redispatches, 1u);
  // While the frozen worker's deadline ran down the healthy one sat idle
  // long enough to be pinged — and answering kept it in the pool.
  EXPECT_GE(remote.worker_stats.remote_keepalive_pings, 1u);
  // The reclaim burned one attempt; every measured field still matches.
  EXPECT_EQ(comparable_csv(remote, /*blank_attempts=*/true),
            comparable_csv(threads, /*blank_attempts=*/true));
}

TEST(RemoteKeepalive, BlackHoledWorkerdIsReclaimedByTheLivenessDeadline) {
  const SweepSpec spec = haar_spec(3);
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  // stall=1 black-holes every post-handshake frame this workerd writes:
  // it registers cleanly, then its heartbeat and results vanish — the
  // half-open connection shape, produced by the injector instead of a
  // firewall. The supervisor must reclaim the job without its help.
  net::WorkerdOptions black_holed;
  black_holed.inject_net = net::NetFaultSpec::parse("seed=1,stall=1");
  ASSERT_TRUE(black_holed.inject_net.has_value());
  const pid_t stalled =
      fork_workerd(spec, listener, black_holed);
  const pid_t healthy = fork_workerd(spec, listener);
  const CampaignResult remote =
      CampaignEngine(2).run(spec, keepalive_options(listener));

  // The supervisor drops the stalled peer; with no reconnect budget the
  // workerd reports the lost connection instead of a finished campaign.
  EXPECT_EQ(wait_exit_code(stalled), kWorkerLost);
  EXPECT_EQ(wait_exit_code(healthy), kWorkerOk);
  EXPECT_TRUE(remote.all_ok());
  EXPECT_GE(remote.worker_stats.remote_keepalive_drops, 1u);
  EXPECT_EQ(comparable_csv(remote, /*blank_attempts=*/true),
            comparable_csv(threads, /*blank_attempts=*/true));
}

// -- Graceful drain (SIGTERM) -------------------------------------------------

TEST(RemoteDrain, SigtermedWorkerdFinishesItsJobAndSaysGoodbye) {
  const SweepSpec spec = haar_spec(25);
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  const std::string shard_path =
      ::testing::TempDir() + "tmemo_drain_shard.journal";
  std::remove(shard_path.c_str());
  // The survivor holds every job until the draining worker has exited, so
  // the campaign is still running when the drain goodbye arrives. Without
  // the gate the survivor could finish the last job first, and a
  // supervisor already shutting down never reads the goodbye.
  const std::string dir = marker_dir("drained");
  const std::string drained = dir + "/draining";
  const SweepSpec gated = gated_haar_spec(
      [drained] {
        wait_until([&drained] { return std::filesystem::exists(drained); });
      },
      25);

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  net::WorkerdOptions journaling;
  journaling.journal_path = shard_path;
  const pid_t draining = fork_workerd(spec, listener, journaling, drained);
  const pid_t survivor = fork_workerd(gated, listener);

  CampaignResult remote;
  std::thread supervisor([&] {
    remote = CampaignEngine(2).run(spec, remote_options(listener));
  });

  // SIGTERM the journaling worker as soon as its shard proves it is
  // mid-campaign; the drain must finish the in-flight job, flush the
  // shard, and hand the rest of the queue to the survivor.
  bool signaled = false;
  for (int i = 0; i < 5000 && !signaled; ++i) {
    std::ifstream in(shard_path);
    if (in.good()) {
      try {
        if (!read_campaign_journal(in).entries.empty()) {
          ::kill(draining, SIGTERM);
          signaled = true;
        }
      } catch (const std::exception&) {
        // Shard header still in flight; keep polling.
      }
    }
    if (!signaled) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  supervisor.join();
  ASSERT_TRUE(signaled) << "shard never saw a first entry";

  EXPECT_EQ(wait_exit_code(draining), kWorkerDrained);
  EXPECT_EQ(wait_exit_code(survivor), kWorkerOk);
  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(remote.worker_stats.remote_drains, 1u);
  // A drain is voluntary: nothing is counted as a crash and a dispatch
  // that raced the goodbye is requeued at the SAME attempt, so even the
  // attempts column matches thread isolation exactly.
  EXPECT_EQ(remote.worker_stats.crashes, 0u);
  EXPECT_EQ(comparable_csv(remote), comparable_csv(threads));

  // The flushed shard is a valid journal prefix of the campaign.
  std::ifstream in(shard_path);
  ASSERT_TRUE(in.good());
  const CampaignJournal shard = read_campaign_journal(in);
  EXPECT_EQ(shard.fingerprint, campaign_fingerprint(spec));
  EXPECT_GE(shard.entries.size(), 1u);
  std::remove(shard_path.c_str());
  std::filesystem::remove_all(dir);
}

// -- Supervisor loss: explicit goodbye vs raw EOF -----------------------------

TEST(RemoteShutdown, EofAfterRegistrationIsConnectionLostNotCompletion) {
  const SweepSpec spec = haar_spec();
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  const pid_t worker = fork_workerd(spec, listener);

  // Fake supervisor: accept the registration, then vanish without the
  // goodbye frame. Before the explicit goodbye existed this looked like a
  // completed campaign; it must now read as a lost connection.
  const int fd = await_connection(listener);
  ASSERT_GE(fd, 0);
  std::string payload;
  ASSERT_TRUE(net::read_frame(fd, payload, net::kMaxHandshakeFrameBytes));
  net::HelloFrame hello;
  ASSERT_TRUE(net::decode_hello(payload, hello));
  net::HelloAckFrame ack;
  ack.accepted = 1;
  ack.max_attempts = 1;
  ASSERT_TRUE(net::write_frame(fd, net::encode_hello_ack(ack)));
  ::close(fd);

  EXPECT_EQ(wait_exit_code(worker), kWorkerLost);
}

TEST(RemoteShutdown, WorkerdSurvivesWritingToAVanishedSupervisor) {
  // SIGPIPE regression (ScopedIgnoreSigpipe in run_workerd): the fake
  // supervisor dispatches a job and disappears, so the workerd's
  // heartbeat/result writes land on a dead socket. The child runs with the
  // default (fatal) SIGPIPE disposition; it must exit through the
  // connection-lost path, not die by signal.
  const SweepSpec spec = haar_spec();
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  const pid_t worker = fork_workerd(spec, listener);

  const int fd = await_connection(listener);
  ASSERT_GE(fd, 0);
  std::string payload;
  ASSERT_TRUE(net::read_frame(fd, payload, net::kMaxHandshakeFrameBytes));
  net::HelloAckFrame ack;
  ack.accepted = 1;
  ack.max_attempts = 1;
  ASSERT_TRUE(net::write_frame(fd, net::encode_hello_ack(ack)));
  ASSERT_TRUE(net::write_frame(fd, net::encode_dispatch(0, 1)));
  ::close(fd);

  const int code = wait_exit_code(worker);
  EXPECT_EQ(code, kWorkerLost);
  EXPECT_NE(code, 128 + SIGPIPE);
}

// -- Reconnect across a supervisor restart ------------------------------------

TEST(RemoteReconnect, WorkerdRedialsAndReRegistersAfterSupervisorLoss) {
  const SweepSpec spec = haar_spec();
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  // Incarnation one: a supervisor that registers the worker and dies.
  net::Listener first;
  first.open({"127.0.0.1", 0});
  const std::uint16_t port = first.bound_port();

  net::WorkerdOptions reconnecting;
  reconnecting.reconnect_attempts = 1000;
  reconnecting.reconnect_backoff_ms = 10;
  const pid_t worker = fork_workerd(spec, first, reconnecting);

  const int fd = await_connection(first);
  ASSERT_GE(fd, 0);
  std::string payload;
  ASSERT_TRUE(net::read_frame(fd, payload, net::kMaxHandshakeFrameBytes));
  net::HelloAckFrame ack;
  ack.accepted = 1;
  ack.max_attempts = 1;
  ASSERT_TRUE(net::write_frame(fd, net::encode_hello_ack(ack)));
  ::close(fd);
  first.close_listener();

  // Incarnation two: the real supervisor on the SAME port. The worker's
  // jittered backoff redials until the new listener is up, re-registers
  // through the digest handshake, and serves the whole campaign.
  net::Listener second;
  second.open({"127.0.0.1", port});
  const CampaignResult remote =
      CampaignEngine(2).run(spec, remote_options(second));

  EXPECT_EQ(wait_exit_code(worker), kWorkerReconnected);
  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(remote.worker_stats.remote_connects, 1u);
  EXPECT_EQ(comparable_csv(remote), comparable_csv(threads));
}

// -- Chaos soak: seeded fault schedules on both ends --------------------------

TEST(RemoteChaos, CampaignSurvivesSeededFaultsOnBothEndsBitIdentically) {
  const SweepSpec spec = haar_spec(15);
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  // Both directions misbehave on independent deterministic schedules:
  // dropped and corrupted frames surface as disconnects/protocol errors,
  // stalls exercise the keepalive reclaim, and --reconnect keeps the
  // workers coming back until the campaign lands. A small redial budget
  // keeps a worker whose goodbye was injected away from redialing the
  // (closed) listener for long.
  net::WorkerdOptions chaotic;
  chaotic.inject_net =
      net::NetFaultSpec::parse("seed=7,drop=0.03,stall=0.02,corrupt=0.03");
  ASSERT_TRUE(chaotic.inject_net.has_value());
  chaotic.reconnect_attempts = 3;
  chaotic.reconnect_backoff_ms = 5;
  const pid_t a = fork_workerd(spec, listener, chaotic);
  const pid_t b = fork_workerd(spec, listener, chaotic);

  CampaignRunOptions options = keepalive_options(listener);
  options.max_attempts = 10;
  options.inject_net =
      net::NetFaultSpec::parse("seed=7,drop=0.03,stall=0.02,corrupt=0.03");
  ASSERT_TRUE(options.inject_net.has_value());
  const CampaignResult remote = CampaignEngine(2).run(spec, options);
  // Close the listener before collecting the workers: a worker whose
  // goodbye was injected away redials, and an open listen backlog would
  // accept the TCP connection and strand it waiting for a registration
  // ack. (The workerd ack deadline would also unstick it, but refused
  // connections end the test in milliseconds instead of seconds.)
  listener.close_listener();

  // Whether a worker saw the final goodbye or had it injected away is the
  // fault schedule's business; both are orderly exits.
  for (const int code : {wait_exit_code(a), wait_exit_code(b)}) {
    EXPECT_TRUE(code == kWorkerOk || code == kWorkerReconnected ||
                code == kWorkerLost)
        << "exit code " << code;
  }
  EXPECT_TRUE(remote.all_ok());
  EXPECT_EQ(comparable_csv(remote, /*blank_attempts=*/true),
            comparable_csv(threads, /*blank_attempts=*/true));
}

} // namespace
} // namespace tmemo

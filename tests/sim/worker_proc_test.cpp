// Supervision tests for the process-isolated campaign worker pool
// (sim/worker_proc.hpp, docs/RESILIENCE.md): crash-injection parsing, the
// ISSUE acceptance checks (a SIGSEGV'd job becomes a failed JobResult with
// the decoded signal name while every other job completes; thread and
// process isolation produce bit-identical grids), and the supervisor edge
// cases — SIGKILL mid-job, a worker that exits 0 without replying, a
// poisoned job exhausting the retry budget into a failed-job manifest, the
// hard timeout kill, and resume-after-crash bit-identity — plus the job
// function every isolation mode shares: setup failures and the over-budget
// verdict.
#include "sim/worker_proc.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "inject/worker_crash.hpp"
#include "sim/campaign.hpp"
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tmemo_wp_" + name;
}

/// CSV of a campaign with the wall_ms column (the one wall-clock-dependent
/// field) blanked, for bit-identity comparisons across isolation modes.
std::string csv_without_wall(const CampaignResult& res) {
  std::ostringstream raw;
  write_campaign_csv(res, raw);
  std::istringstream in(raw.str());
  std::ostringstream out;
  std::vector<std::string> fields;
  while (read_csv_record(in, fields)) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields.size() > 19 && i == 19) fields[i].clear(); // wall_ms
      out << (i == 0 ? "" : ",") << fields[i];
    }
    out << '\n';
  }
  return out.str();
}

CampaignRunOptions process_options() {
  CampaignRunOptions options;
  options.isolation = IsolationMode::kProcess;
  return options;
}

class AlwaysThrowsWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "Doom"; }
  [[nodiscard]] std::string input_parameter() const override { return "-"; }
  [[nodiscard]] float table1_threshold() const override { return 0.0f; }
  [[nodiscard]] double verify_tolerance() const override { return 0.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice&) const override {
    throw std::runtime_error("hard failure");
  }
};

/// Sleeps far past any test timeout budget: only a hard SIGKILL — not the
/// thread pool's cooperative check — can reclaim the worker in time.
class StuckWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "Stuck"; }
  [[nodiscard]] std::string input_parameter() const override { return "-"; }
  [[nodiscard]] float table1_threshold() const override { return 0.0f; }
  [[nodiscard]] double verify_tolerance() const override { return 0.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice&) const override {
    std::this_thread::sleep_for(std::chrono::seconds(60));
    return {};
  }
};

using Workloads = std::vector<std::unique_ptr<Workload>>;

/// A factory that answers its first call (CampaignEngine::expand's) with
/// Haar-128 plus an always-throwing workload, and every later call — the
/// worker threads' or forked workers' own — with `later()`. Each spec gets
/// its own call counter, so build a fresh one per campaign.
SweepSpec spec_whose_workers_get(std::function<Workloads()> later) {
  SweepSpec spec;
  auto calls = std::make_shared<std::atomic<int>>(0);
  spec.factory = [calls, later = std::move(later)] {
    if (calls->fetch_add(1) > 0) return later();
    Workloads v;
    v.push_back(std::make_unique<HaarWorkload>(128));
    v.push_back(std::make_unique<AlwaysThrowsWorkload>());
    return v;
  };
  spec.axis = SweepAxis::error_rate(0.0, 0.04, 2);
  return spec;
}

/// Runs `make_spec()` at max_attempts = 3 under thread and then process
/// isolation; both grids must agree bit-for-bit (wall_ms aside).
CampaignResult run_both_isolations(const std::function<SweepSpec()>& make_spec) {
  CampaignRunOptions thread_options;
  thread_options.max_attempts = 3;
  CampaignRunOptions proc_opts = process_options();
  proc_opts.max_attempts = 3;
  const CampaignResult threads =
      CampaignEngine(2).run(make_spec(), thread_options);
  const CampaignResult procs = CampaignEngine(2).run(make_spec(), proc_opts);
  EXPECT_EQ(csv_without_wall(procs), csv_without_wall(threads));
  EXPECT_EQ(procs.worker_stats.crashes, 0u);
  return threads;
}

// -- Crash-injection parsing --------------------------------------------------

TEST(WorkerCrashParse, AcceptsJobSignalAndCount) {
  const auto plain = inject::WorkerCrashInjection::parse("3:segv");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->job_index, 3u);
  EXPECT_EQ(plain->signal, SIGSEGV);
  EXPECT_TRUE(plain->applies(3, 1));
  EXPECT_TRUE(plain->applies(3, 99)); // default: every attempt crashes
  EXPECT_FALSE(plain->applies(2, 1));

  const auto once = inject::WorkerCrashInjection::parse("0:SIGKILL:1");
  ASSERT_TRUE(once.has_value());
  EXPECT_EQ(once->signal, SIGKILL);
  EXPECT_TRUE(once->applies(0, 1));
  EXPECT_FALSE(once->applies(0, 2)); // transient: redispatch succeeds

  const auto exit0 = inject::WorkerCrashInjection::parse("1:exit0");
  ASSERT_TRUE(exit0.has_value());
  EXPECT_EQ(exit0->signal, inject::kWorkerExitsCleanly);

  const auto numeric = inject::WorkerCrashInjection::parse("2:6:2");
  ASSERT_TRUE(numeric.has_value());
  EXPECT_EQ(numeric->signal, SIGABRT);
  EXPECT_EQ(numeric->crash_count, 2);
}

TEST(WorkerCrashParse, RejectsMalformedSpecs) {
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("x:segv").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:banana").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:segv:0").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:segv:x").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:segv:1:9").has_value());
  EXPECT_FALSE(inject::WorkerCrashInjection::parse("3:999").has_value());
}

TEST(WorkerCrashParse, SignalNamesRoundTrip) {
  EXPECT_EQ(inject::signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(inject::signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(inject::signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(inject::signal_name(63), "signal 63");
  EXPECT_EQ(inject::parse_signal("SIGSEGV"), SIGSEGV);
  EXPECT_EQ(inject::parse_signal("abrt"), SIGABRT);
  EXPECT_EQ(inject::parse_signal("11"), 11);
  EXPECT_FALSE(inject::parse_signal("").has_value());
  EXPECT_FALSE(inject::parse_signal("65").has_value());
}

// -- Bit-identity across isolation modes (ISSUE acceptance) -------------------

TEST(ProcessIsolation, GridIsBitIdenticalToThreadIsolation) {
  const SweepSpec spec = haar_spec();
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});
  const CampaignResult procs = CampaignEngine(2).run(spec, process_options());
  ASSERT_EQ(procs.jobs.size(), threads.jobs.size());
  EXPECT_TRUE(procs.all_ok());
  EXPECT_EQ(csv_without_wall(procs), csv_without_wall(threads));

  // And for a different worker count (scheduling must not leak into
  // results).
  const CampaignResult one = CampaignEngine(1).run(spec, process_options());
  EXPECT_EQ(csv_without_wall(one), csv_without_wall(threads));
}

TEST(ProcessIsolation, CleanFailureAttemptsMatchThreadIsolation) {
  // A deterministic in-worker throw burns the same retry budget in both
  // isolation modes: the attempts column must agree bit-for-bit.
  SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<AlwaysThrowsWorkload>());
    return v;
  };
  spec.axis = SweepAxis::error_rate_point(0.0);
  CampaignRunOptions thread_options;
  thread_options.max_attempts = 3;
  CampaignRunOptions proc_opts = process_options();
  proc_opts.max_attempts = 3;
  const CampaignResult threads = CampaignEngine(1).run(spec, thread_options);
  const CampaignResult procs = CampaignEngine(1).run(spec, proc_opts);
  ASSERT_EQ(procs.jobs.size(), 1u);
  EXPECT_FALSE(procs.jobs[0].ok);
  EXPECT_EQ(procs.jobs[0].attempts, 3);
  EXPECT_EQ(procs.worker_stats.crashes, 0u); // a throw is not a crash
  EXPECT_EQ(csv_without_wall(procs), csv_without_wall(threads));
}

// -- The shared job function: setup failures ---------------------------------

TEST(JobSetup, FailedWorkloadSetupIsRecordedByEveryJobWithoutRetry) {
  const CampaignResult res = run_both_isolations([] {
    return spec_whose_workers_get(
        []() -> Workloads { throw std::runtime_error("disk gone"); });
  });
  ASSERT_EQ(res.jobs.size(), 4u);
  for (const JobResult& j : res.jobs) {
    EXPECT_FALSE(j.ok);
    EXPECT_EQ(j.error, "workload setup failed: disk gone");
    EXPECT_EQ(j.attempts, 1); // environmental: never retried
  }
}

TEST(JobSetup, ShortFactoryFailsTheMissingWorkloadsJobsWithoutRetry) {
  const CampaignResult res = run_both_isolations([] {
    return spec_whose_workers_get([] {
      Workloads v;
      v.push_back(std::make_unique<HaarWorkload>(128));
      return v;
    });
  });
  ASSERT_EQ(res.jobs.size(), 4u);
  for (const JobResult& j : res.jobs) {
    if (j.job.workload_index == 0) {
      EXPECT_TRUE(j.ok) << j.error;
      continue;
    }
    // The always-throwing workload never ran: a run would have burned all
    // three attempts on "hard failure".
    EXPECT_FALSE(j.ok);
    EXPECT_EQ(j.error,
              "workload factory returned fewer workloads than expected");
    EXPECT_EQ(j.attempts, 1);
  }
}

// -- The shared over-budget verdict ------------------------------------------

TEST(JobTimeout, OverBudgetVerdictPrintsTheBudgetShortestRoundTrip) {
  // The verdict thread workers and the supervisor both apply.
  JobResult res;
  res.ok = true;
  res.report.kernel = "Haar";
  res.report.energy.baseline_pj = 42.0;
  res.wall_ms = 1234568.0;
  classify_job_timeout(res, 1234567.5);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.timed_out);
  EXPECT_EQ(res.error, "job exceeded 1234567.5 ms timeout");
  EXPECT_TRUE(res.report.kernel.empty());
  EXPECT_EQ(res.report.energy.baseline_pj, 0.0);

  // At the budget, and with no budget, the result stands.
  JobResult within;
  within.ok = true;
  within.wall_ms = 1234567.5;
  classify_job_timeout(within, 1234567.5);
  classify_job_timeout(within, 0.0);
  EXPECT_TRUE(within.ok);
  EXPECT_FALSE(within.timed_out);
}

TEST(JobTimeout, ThreadPoolAppliesTheSharedVerdict) {
  CampaignRunOptions options;
  options.job_timeout_ms = 1e-9; // any real run takes longer
  const CampaignResult res = CampaignEngine(1).run(haar_spec(1), options);
  ASSERT_EQ(res.jobs.size(), 1u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_TRUE(res.jobs[0].timed_out);
  EXPECT_EQ(res.jobs[0].error, "job exceeded 1e-09 ms timeout");
  EXPECT_TRUE(res.jobs[0].report.kernel.empty());
}

// -- Crash containment --------------------------------------------------------

TEST(ProcessIsolation, SegfaultIsContainedWithDecodedSignalName) {
  CampaignRunOptions options = process_options();
  options.inject_worker_crash = inject::WorkerCrashInjection::parse("1:segv");
  const CampaignResult res = CampaignEngine(2).run(haar_spec(), options);
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_TRUE(res.jobs[0].ok);
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_NE(res.jobs[1].error.find("SIGSEGV"), std::string::npos)
      << res.jobs[1].error;
  EXPECT_TRUE(res.jobs[2].ok);
  EXPECT_GE(res.worker_stats.crashes, 1u);
  EXPECT_GE(res.worker_stats.spawns, 1u);
}

TEST(ProcessIsolation, SigkillMidJobIsDecodedWithOomHint) {
  CampaignRunOptions options = process_options();
  options.inject_worker_crash = inject::WorkerCrashInjection::parse("0:kill");
  const CampaignResult res = CampaignEngine(1).run(haar_spec(), options);
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_NE(res.jobs[0].error.find("SIGKILL"), std::string::npos);
  EXPECT_NE(res.jobs[0].error.find("OOM"), std::string::npos)
      << "SIGKILL should carry the OOM heuristic: " << res.jobs[0].error;
  EXPECT_TRUE(res.jobs[1].ok);
  EXPECT_TRUE(res.jobs[2].ok);
}

TEST(ProcessIsolation, CleanExitWithoutReplyIsAFailureNotAHang) {
  CampaignRunOptions options = process_options();
  options.inject_worker_crash = inject::WorkerCrashInjection::parse("1:exit0");
  const CampaignResult res = CampaignEngine(2).run(haar_spec(), options);
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_NE(res.jobs[1].error.find("exited cleanly without replying"),
            std::string::npos)
      << res.jobs[1].error;
  EXPECT_TRUE(res.jobs[0].ok);
  EXPECT_TRUE(res.jobs[2].ok);
}

TEST(ProcessIsolation, TransientCrashIsAbsorbedByRedispatch) {
  CampaignRunOptions options = process_options();
  options.max_attempts = 2;
  options.inject_worker_crash =
      inject::WorkerCrashInjection::parse("1:abrt:1");
  // One worker slot: the only worker dies with job 1, so the redispatch
  // cannot run until a replacement is forked. With two slots the survivor
  // could absorb it and no respawn would be needed.
  const CampaignResult res = CampaignEngine(1).run(haar_spec(), options);
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.jobs[1].attempts, 2); // the crash consumed attempt 1
  EXPECT_EQ(res.worker_stats.crashes, 1u);
  EXPECT_EQ(res.worker_stats.redispatches, 1u);
  EXPECT_GE(res.worker_stats.respawns, 1u);
}

TEST(ProcessIsolation, PoisonedJobExhaustsBudgetIntoFailedManifest) {
  const std::string journal_path = temp_path("poisoned.journal");
  std::remove(journal_path.c_str());
  CampaignRunOptions options = process_options();
  options.max_attempts = 3;
  options.journal_path = journal_path;
  options.inject_worker_crash = inject::WorkerCrashInjection::parse("1:segv");
  const CampaignResult res = CampaignEngine(2).run(haar_spec(), options);
  ASSERT_EQ(res.jobs.size(), 3u); // the campaign completes regardless
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_EQ(res.jobs[1].attempts, 3);
  EXPECT_EQ(res.worker_stats.crashes, 3u);
  EXPECT_EQ(res.worker_stats.redispatches, 2u);
  EXPECT_TRUE(res.jobs[0].ok);
  EXPECT_TRUE(res.jobs[2].ok);

  // The journal doubles as the failed-job manifest: the poisoned job is on
  // record with its decoded cause.
  std::ifstream in(journal_path);
  ASSERT_TRUE(in.good());
  const CampaignJournal journal = read_campaign_journal(in);
  bool found_failed = false;
  for (const JobResult& e : journal.entries) {
    if (e.job.index == 1) {
      found_failed = true;
      EXPECT_FALSE(e.ok);
      EXPECT_NE(e.error.find("SIGSEGV"), std::string::npos);
    }
  }
  EXPECT_TRUE(found_failed);
  std::remove(journal_path.c_str());
}

TEST(ProcessIsolation, HardTimeoutKillsTheWorker) {
  SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<StuckWorkload>());
    return v;
  };
  spec.axis = SweepAxis::error_rate_point(0.0);
  CampaignRunOptions options = process_options();
  options.job_timeout_ms = 100.0;
  options.max_attempts = 3; // timeouts must still not be retried
  const CampaignResult res = CampaignEngine(1).run(spec, options);
  ASSERT_EQ(res.jobs.size(), 1u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_TRUE(res.jobs[0].timed_out);
  EXPECT_NE(res.jobs[0].error.find("hard timeout"), std::string::npos)
      << res.jobs[0].error;
  EXPECT_EQ(res.worker_stats.timeout_kills, 1u);
  EXPECT_EQ(res.worker_stats.redispatches, 0u);
}

TEST(ProcessIsolation, NoChildIsLeftUnreapedAfterTheCampaign) {
  const CampaignResult res =
      CampaignEngine(2).run(haar_spec(), process_options());
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.worker_stats.crashes, 0u);
  EXPECT_EQ(res.worker_stats.spawns, 2u);
  // Every forked worker was waited for before run() returned.
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// -- Resume after a crashed campaign ------------------------------------------

TEST(ProcessIsolation, ResumeAfterCrashReproducesCleanRunBitIdentically) {
  const SweepSpec spec = haar_spec();
  const CampaignResult clean =
      CampaignEngine(2).run(spec, CampaignRunOptions{});

  const std::string journal_path = temp_path("crashed.journal");
  std::remove(journal_path.c_str());
  CampaignRunOptions crashing = process_options();
  crashing.journal_path = journal_path;
  crashing.inject_worker_crash = inject::WorkerCrashInjection::parse("1:segv");
  const CampaignResult crashed = CampaignEngine(2).run(spec, crashing);
  EXPECT_FALSE(crashed.jobs[1].ok);

  // Resume without the injection: the journaled failure is re-executed
  // (only ok entries restore), healing the grid to the clean run.
  std::ifstream in(journal_path);
  ASSERT_TRUE(in.good());
  CampaignRunOptions resuming = process_options();
  resuming.resume = read_campaign_journal(in);
  resuming.journal_path = journal_path;
  const CampaignResult resumed = CampaignEngine(2).run(spec, resuming);
  EXPECT_TRUE(resumed.all_ok());
  EXPECT_EQ(resumed.resumed_jobs, 2u);
  EXPECT_EQ(csv_without_wall(resumed), csv_without_wall(clean));
  std::remove(journal_path.c_str());
}

// -- Telemetry across the pipe ------------------------------------------------

TEST(ProcessIsolation, MetricsSnapshotsCrossThePipeExactly) {
  SweepSpec spec = haar_spec();
  spec.metrics = true;
  const CampaignResult threads =
      CampaignEngine(2).run(spec, CampaignRunOptions{});
  const CampaignResult procs = CampaignEngine(2).run(spec, process_options());

  // Every simulator-side instrument merges to the same value; the process
  // campaign only adds its campaign.worker_* supervision counters.
  for (const auto& c : threads.metrics.counters) {
    const auto* other = procs.metrics.find_counter(c.name);
    ASSERT_NE(other, nullptr) << c.name;
    EXPECT_EQ(other->value, c.value) << c.name;
  }
  for (const auto& h : threads.metrics.histograms) {
    const auto* other = procs.metrics.find_histogram(h.name);
    ASSERT_NE(other, nullptr) << h.name;
    EXPECT_EQ(other->buckets, h.buckets) << h.name;
    EXPECT_EQ(other->sum, h.sum) << h.name;
  }
  const auto* spawns = procs.metrics.find_counter("campaign.worker_spawns");
  ASSERT_NE(spawns, nullptr);
  EXPECT_GE(spawns->value, 1u);
  EXPECT_EQ(threads.metrics.find_counter("campaign.worker_spawns"), nullptr);
}

TEST(ProcessIsolation, TimelineCampaignRecordsSupervisionEvents) {
  SweepSpec spec = haar_spec();
  spec.timeline = true;
  CampaignRunOptions options = process_options();
  options.max_attempts = 2;
  options.inject_worker_crash =
      inject::WorkerCrashInjection::parse("1:segv:1");
  const CampaignResult res = CampaignEngine(1).run(spec, options);
  ASSERT_NE(res.timeline, nullptr);
  bool saw_spawn = false;
  bool saw_crash = false;
  bool saw_redispatch = false;
  for (const auto& ev : res.timeline->events()) {
    if (ev.name == "worker_spawn") saw_spawn = true;
    if (ev.name == "worker_crash") saw_crash = true;
    if (ev.name == "job_redispatch") saw_redispatch = true;
  }
  EXPECT_TRUE(saw_spawn);
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_redispatch);
}

} // namespace
} // namespace tmemo

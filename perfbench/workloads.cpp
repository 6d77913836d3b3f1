#include "workloads.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "io/atomic_file.hpp"
#include "net/transport.hpp"
#include "net/workerd.hpp"
#include "workloads/haar.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Jobs of the fabric grid: enough that the pool reaches steady state and
/// the job-latency percentiles rest on a few hundred samples.
constexpr int kFabricJobs = 240;
/// Journal checkpoint cadence of the fabric grid (--checkpoint-every).
constexpr std::size_t kFabricCheckpointEvery = 50;

} // namespace

void ForkedWorkerds::spawn(const tmemo::SweepSpec& spec, std::uint16_t port,
                           int count) {
  for (int i = 0; i < count; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int code = 1;
      try {
        tmemo::net::WorkerdOptions options;
        options.connect = {"127.0.0.1", port};
        code = tmemo::net::run_workerd(spec, options).ok ? 0 : 1;
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    pids_.push_back(pid);
  }
}

int ForkedWorkerds::reap() {
  int failures = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (const pid_t pid : pids_) {
    int status = 0;
    pid_t got = 0;
    while ((got = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (got == 0) {
      ::kill(pid, SIGKILL);
      got = ::waitpid(pid, &status, 0);
    }
    if (got != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  pids_.clear();
  return failures;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"errsweep", "vossweep",
                                                 "observed", "fabric"};
  return names;
}

WorkloadDef make_workload(const std::string& name) {
  WorkloadDef def;
  def.name = name;
  if (name == "errsweep") {
    def.why = "Fig. 10 grid: 7 kernels x error rate 0-4 %, threads, "
              "telemetry off";
    def.spec.scale = 0.04;
    def.spec.axis = tmemo::SweepAxis::error_rate(0.0, 0.04, 5);
  } else if (name == "vossweep") {
    def.why = "Fig. 11 grid: 6 kernels x supply 0.90-0.80 V, every op "
              "through the voltage error model and V-scaled energy";
    def.spec.scale = 0.02;
    def.spec.kernels = {"sobel", "gaussian", "haar", "binomialoption",
                        "blackscholes", "eigenvalue"};
    def.spec.axis = tmemo::SweepAxis::voltage(0.90, 0.80, 6);
  } else if (name == "observed") {
    def.why = "a Fig. 10 slice with telemetry metrics on and the job-0 "
              "timeline recorded";
    def.spec.scale = 0.04;
    def.spec.kernels = {"sobel", "haar", "binomialoption", "blackscholes",
                        "fwt"};
    def.spec.axis = tmemo::SweepAxis::error_rate(0.0, 0.04, 3);
    def.spec.metrics = true;
    def.spec.timeline = true;
  } else if (name == "fabric") {
    def.why = "tiny Haar-128 jobs on socket and pipe workers, every job "
              "journaled with checkpoints";
    def.spec.factory = [] {
      std::vector<std::unique_ptr<tmemo::Workload>> v;
      v.push_back(std::make_unique<tmemo::HaarWorkload>(128));
      return v;
    };
    def.spec.axis = tmemo::SweepAxis::error_rate(0.0, 0.04, kFabricJobs);
    def.fabric = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return def;
}

Rep run_rep(const WorkloadDef& def, const RepOptions& options,
            const RepContext& ctx, SpanRecorder& spans) {
  tmemo::SweepSpec spec = def.spec;
  spec.campaign_seed = options.seed;
  if (options.force_metrics_off) {
    spec.metrics = false;
    spec.timeline = false;
  }
  const bool remote = def.fabric && !options.force_thread;
  const std::string journal = ctx.out_dir + "/" + def.name + ".journal";
  if (remote) {
    std::remove(journal.c_str());
    std::remove(tmemo::campaign_checkpoint_path(journal).c_str());
  }

  Rep rep;
  auto rep_span = spans.span("rep " + def.name);
  const auto start = Clock::now();

  // Set-up: everything before CampaignEngine::run.
  tmemo::net::Listener listener;
  ForkedWorkerds children;
  tmemo::CampaignRunOptions run_options;
  {
    auto setup_span = spans.span("setup");
    {
      auto s = spans.span("CampaignEngine::expand");
      // expand() builds the workload set once to resolve the grid.
      const auto jobs = tmemo::CampaignEngine::expand(spec);
      if (jobs.empty()) throw std::runtime_error("empty grid");
    }
    if (remote) {
      const int socket_workers = std::max(1, ctx.workers - 1);
      {
        auto s = spans.span("net::Listener::open");
        listener.open({"127.0.0.1", 0});
      }
      auto s = spans.span("fork workers");
      children.spawn(spec, listener.bound_port(), socket_workers);
      run_options.isolation = tmemo::IsolationMode::kRemote;
      run_options.listener = &listener;
      run_options.remote_local_workers = ctx.workers - socket_workers;
      run_options.journal_path = journal;
      run_options.checkpoint_every = kFabricCheckpointEvery;
    }
  }
  rep.setup_s = seconds_since(start);

  const auto run_start = Clock::now();
  {
    auto s = spans.span("CampaignEngine::run");
    rep.result = tmemo::CampaignEngine(ctx.workers).run(spec, run_options);
  }
  rep.run_s = seconds_since(run_start);

  const auto commit_start = Clock::now();
  {
    auto s = spans.span("artifact commit");
    tmemo::io::AtomicFileWriter writer;
    writer.open(ctx.out_dir + "/" + def.name + ".csv");
    writer.stream() << "# manifest: " << ctx.manifest_json << '\n';
    tmemo::write_campaign_csv(rep.result, writer.stream());
    writer.commit();
  }
  rep.commit_s = seconds_since(commit_start);

  if (remote) {
    auto s = spans.span("reap workers");
    rep.worker_exit_failures = children.reap();
  }
  std::ostringstream csv;
  tmemo::write_campaign_csv(rep.result, csv);
  rep.grid_csv = csv.str();
  return rep;
}

std::size_t failed_jobs(const tmemo::CampaignResult& r) {
  std::size_t n = 0;
  for (const tmemo::JobResult& j : r.jobs) {
    if (!j.ok || !j.report.result.passed) ++n;
  }
  return n;
}

std::uint64_t fp_ops(const tmemo::CampaignResult& r) {
  std::uint64_t n = 0;
  for (const tmemo::JobResult& j : r.jobs) {
    if (j.ok) n += j.report.total_instructions();
  }
  return n;
}

double sum_job_ms(const tmemo::CampaignResult& r) {
  double ms = 0.0;
  for (const tmemo::JobResult& j : r.jobs) ms += j.wall_ms;
  return ms;
}

double paper_error_pp(const tmemo::CampaignResult& r) {
  // Mean saving (%) per operating point, in axis order.
  std::map<double, std::pair<double, int>> per_point;
  bool voltage = false;
  for (const tmemo::JobResult& j : r.jobs) {
    if (!j.ok) continue;
    voltage = j.job.spec.axis() == tmemo::RunSpec::Axis::kVoltage;
    auto& [sum, n] = per_point[j.job.axis_value];
    sum += j.report.energy.saving() * 100.0;
    ++n;
  }
  double gap = 0.0;
  int points = 0;
  for (const auto& [x, acc] : per_point) {
    const double measured = acc.first / acc.second;
    double paper = 0.0;
    if (voltage) {
      static constexpr std::pair<double, double> kFig11[] = {
          {0.90, 13.0}, {0.84, 11.0}, {0.80, 44.0}};
      bool found = false;
      for (const auto& [v, pct] : kFig11) {
        if (std::fabs(x - v) < 1e-6) {
          paper = pct;
          found = true;
        }
      }
      if (!found) continue;
    } else {
      static constexpr double kFig10[] = {13.0, 17.0, 20.0, 23.0, 25.0};
      if (x < -1e-12 || x > 0.04 + 1e-12) continue;
      const double pos = std::clamp(x / 0.01, 0.0, 4.0);
      const auto lo = static_cast<std::size_t>(std::min(std::floor(pos), 3.0));
      paper = kFig10[lo] + (kFig10[lo + 1] - kFig10[lo]) *
                               (pos - static_cast<double>(lo));
    }
    gap += std::fabs(measured - paper);
    ++points;
  }
  if (points == 0) {
    throw std::runtime_error("grid has no operating point the paper reports");
  }
  return gap / points;
}

} // namespace perfbench

// The benchmark's four workloads and the pipeline one repetition runs:
// set-up (CampaignEngine::expand, listener, forked workers), then
// CampaignEngine::run, then the grid artifact commit through
// io::AtomicFileWriter — the path tmemo_sim takes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spans.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

/// The campaign seed the checked-in reference grids were made with.
inline constexpr std::uint64_t kReferenceSeed = 0x5eed;

struct WorkloadDef {
  std::string name;
  std::string why;
  /// Grid without its seed (set per repetition).
  tmemo::SweepSpec spec;
  /// Remote isolation: socket workers forked from the benchmark plus local
  /// pipe workers in the same supervisor loop, every job journaled.
  bool fabric = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadDef make_workload(const std::string& name);

/// Where a repetition writes its artifacts, and what it stamps on them.
struct RepContext {
  std::string out_dir;
  std::string manifest_json;
  int workers = 1;
};

/// One repetition of a workload.
struct Rep {
  double setup_s = 0.0;  ///< everything before CampaignEngine::run
  double run_s = 0.0;    ///< CampaignEngine::run
  double commit_s = 0.0; ///< AtomicFileWriter + write_campaign_csv
  [[nodiscard]] double wall_s() const { return setup_s + run_s + commit_s; }
  tmemo::CampaignResult result;
  /// write_campaign_csv text of the grid (made after timing).
  std::string grid_csv;
  /// Forked workers that did not exit cleanly.
  int worker_exit_failures = 0;
};

/// How a repetition departs from its workload's grid. The cross-mode
/// checks run the fabric grid on threads and the observed grid with
/// telemetry off.
struct RepOptions {
  std::uint64_t seed = kReferenceSeed;
  bool force_thread = false;
  bool force_metrics_off = false;
};

/// Runs one repetition of `def`'s grid.
[[nodiscard]] Rep run_rep(const WorkloadDef& def, const RepOptions& options,
                          const RepContext& ctx, SpanRecorder& spans);

/// Socket workers (net::run_workerd) forked from the benchmark process, as
/// bench/perf_dispatch forks them. The destructor reaps any still running.
class ForkedWorkerds {
 public:
  ForkedWorkerds() = default;
  ForkedWorkerds(const ForkedWorkerds&) = delete;
  ForkedWorkerds& operator=(const ForkedWorkerds&) = delete;
  ~ForkedWorkerds() { reap(); }

  /// Forks `count` workers that register with the supervisor listening on
  /// 127.0.0.1:`port` and serve `spec`.
  void spawn(const tmemo::SweepSpec& spec, std::uint16_t port, int count);

  /// Waits up to 10 s for every worker, then SIGKILLs the rest. Returns how
  /// many did not exit with status 0.
  int reap();

 private:
  std::vector<int> pids_;
};

/// Jobs that are not ok or fail host verification.
[[nodiscard]] std::size_t failed_jobs(const tmemo::CampaignResult& r);

/// Sum of KernelRunReport::total_instructions() over ok jobs.
[[nodiscard]] std::uint64_t fp_ops(const tmemo::CampaignResult& r);

/// Sum of JobResult::wall_ms.
[[nodiscard]] double sum_job_ms(const tmemo::CampaignResult& r);

/// Mean absolute gap, in percentage points, between the grid's average
/// energy saving per operating point and the paper's headline there.
/// Error-rate grids compare against Fig. 10 (13/17/20/23/25 % at 0-4 %,
/// linearly interpolated between those points); voltage grids against
/// Fig. 11 at 0.90 V (13 %), 0.84 V (11 %) and 0.80 V (44 %) only. Throws
/// when the grid has no comparable point.
[[nodiscard]] double paper_error_pp(const tmemo::CampaignResult& r);

} // namespace perfbench

// Worker-pool accounting for a finished campaign.
//
// A campaign with W workers that ran for `wall_ms` offers W * wall_ms of
// worker time. The jobs themselves used sum_job_ms of it (JobResult::wall_ms
// summed); the rest is either idle workers (a straggler at the end of the
// grid) or dispatch overhead (supervisor loop, frames, pipes, sockets).
#pragma once

#include <cstddef>

namespace perfbench {

/// Share of the offered worker time spent inside jobs:
/// sum_job_ms / (wall_ms * workers). 0 when nothing was offered.
[[nodiscard]] inline double busy_fraction(double sum_job_ms, double wall_ms,
                                          int workers) noexcept {
  const double offered = wall_ms * static_cast<double>(workers);
  return offered > 0.0 ? sum_job_ms / offered : 0.0;
}

/// Worker time not spent in jobs, per job:
/// (wall_ms * workers - sum_job_ms) / jobs. 0 for an empty campaign.
[[nodiscard]] inline double dispatch_ms_per_job(double sum_job_ms,
                                                double wall_ms, int workers,
                                                std::size_t jobs) noexcept {
  if (jobs == 0) return 0.0;
  return (wall_ms * static_cast<double>(workers) - sum_job_ms) /
         static_cast<double>(jobs);
}

} // namespace perfbench

// Per-layer timings for the traced run.
//
// Every per-op layer (memo, timing, energy, telemetry, gpu) replays a
// fixed, checked-in operand stream: a TMTR trace loaded with load_trace and
// steered to per-FPU LUTs the way replay_trace does. The input of those
// loops therefore never depends on the code under test. The other layers
// call their public entry points on fixed inputs: workload construction
// and launch, the frame codec, the journal writer and the artifact writer.
#pragma once

#include <string>

#include "core/report.hpp"
#include "core/spans.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

struct LayerInputs {
  std::string data_dir; ///< holds sobel.tmtr and blackscholes.tmtr
  std::string out_dir;  ///< scratch files (journal) go here
  /// A finished grid of the workload under test: its first ok job feeds
  /// the result frame, its CSV the artifact-commit loop.
  const tmemo::CampaignResult* grid = nullptr;
  int workers = 1;
  /// Device seed of the layer loops that draw timing errors.
  std::uint64_t seed = 1;
};

/// Measures every per-layer metric except the campaign-derived sim.*
/// ones and adds them to `out`; prints supporting counts to stdout.
void measure_layers(const LayerInputs& in, MetricSet& out,
                    SpanRecorder& spans);

/// The three short single-mode campaigns on the fabric grid:
/// sim.dispatch_ms_per_job.{thread,process,remote}. Returns false when a
/// campaign failed a job.
[[nodiscard]] bool measure_dispatch(const LayerInputs& in, MetricSet& out,
                                    SpanRecorder& spans);

} // namespace perfbench

#include "gpu/compute_unit.hpp"

#include <bit>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace tmemo {

ComputeUnit::ComputeUnit(const DeviceConfig& config, std::uint64_t seed,
                         std::shared_ptr<const FpuProgramming> programming)
    : wavefront_size_(config.wavefront_size),
      subwavefronts_(config.subwavefronts()) {
  if (!programming) {
    programming = std::make_shared<const FpuProgramming>(config.fpu);
  }
  cores_.reserve(static_cast<std::size_t>(config.stream_cores_per_cu));
  for (int sc = 0; sc < config.stream_cores_per_cu; ++sc) {
    cores_.emplace_back(programming,
                        mix_seed(seed, static_cast<std::uint64_t>(sc)));
  }
}

void ComputeUnit::execute_wavefront_op(
    FpOpcode op, StaticInstrId static_id, const float* a, const float* b,
    const float* c, std::uint64_t active_mask, WorkItemId base_work_item,
    const TimingErrorModel& errors, ExecutionSink* sink, float* results) {
  TM_REQUIRE(results != nullptr, "results array is required");
  const int arity = opcode_arity(op);
  TM_REQUIRE(a != nullptr, "operand a is required");
  TM_REQUIRE(arity < 2 || b != nullptr, "operand b required for this opcode");
  TM_REQUIRE(arity < 3 || c != nullptr, "operand c required for this opcode");

  // Spatial memoization (reference [20]): the first active lane is the
  // master; subsequent lanes whose operands match it under the spatial
  // constraint reuse its broadcast result without touching their FPUs.
  SpatialMaster master;
  const FpuType unit = opcode_unit(op);
  SpatialStats& sstats = spatial_stats_[static_cast<std::size_t>(unit)];

  const std::uint64_t lane_mask =
      wavefront_size_ >= 64 ? ~0ull : (1ull << wavefront_size_) - 1;
  TMEMO_TELEM(probe_,
              telemetry::ProbeEvent{
                  telemetry::ProbeEvent::Kind::kWavefrontIssue,
                  static_cast<std::uint8_t>(unit), 0, 0, probe_cu_,
                  static_cast<std::uint64_t>(
                      std::popcount(active_mask & lane_mask))});

  const int lanes_per_sub = static_cast<int>(cores_.size());
  for (int sub = 0; sub < subwavefronts_; ++sub) {
    for (int sc = 0; sc < lanes_per_sub; ++sc) {
      const int lane = sub * lanes_per_sub + sc;
      if (lane >= wavefront_size_) break;
      if ((active_mask & (1ull << lane)) == 0) continue;

      FpInstruction ins;
      ins.opcode = op;
      ins.static_id = static_id;
      ins.work_item = base_work_item + static_cast<WorkItemId>(lane);
      ins.operands[0] = a[lane];
      if (arity >= 2) ins.operands[1] = b[lane];
      if (arity >= 3) ins.operands[2] = c[lane];

      if (spatial_ && master.armed()) {
        ++sstats.comparisons;
        if (master.matches(ins, spatial_constraint_)) {
          ++sstats.reuses;
          // The lane's FPU is fully clock-gated; the master's committed
          // (exact) value arrives over the broadcast network. A timing
          // error that WOULD have occurred on this lane is drawn anyway so
          // the paired-baseline energy comparison stays exact; the spatial
          // reuse masks it by construction.
          ExecutionRecord rec;
          rec.unit = unit;
          rec.opcode = op;
          rec.work_item = ins.work_item;
          rec.static_id = static_id;
          rec.action = MemoAction::kReuse;
          rec.spatial_reuse = true;
          rec.spatial_compares = 1;
          rec.timing_error = errors.sample_error(unit, spatial_rng_);
          rec.error_masked = rec.timing_error;
          rec.gated_stage_cycles = fpu_latency_cycles(unit);
          rec.latency_cycles = fpu_latency_cycles(unit);
          rec.result = master.result();
          rec.exact_result = evaluate_fp_op(ins);
          rec.operands = ins.operands;
          results[lane] = rec.result;
          TMEMO_TELEM(probe_,
                      telemetry::ProbeEvent{
                          telemetry::ProbeEvent::Kind::kSpatialReuse,
                          static_cast<std::uint8_t>(unit), 0,
                          static_cast<std::uint16_t>(sc), probe_cu_,
                          static_cast<std::uint64_t>(rec.latency_cycles)});
          if (sink != nullptr) sink->consume(rec);
          continue;
        }
      }

      ExecutionRecord rec =
          cores_[static_cast<std::size_t>(sc)].execute(ins, errors);
      if (spatial_) {
        if (master.armed()) rec.spatial_compares = 1; // compared and missed
        // Committed values are exact on the non-reuse path only when the
        // temporal LUT did not approximate; arm the master with whatever
        // was committed — reusing lanes must mirror the architecture.
        if (!master.armed()) master.arm(ins, rec.result);
      }
      results[lane] = rec.result;
      if (sink != nullptr) sink->consume(rec);
    }
  }
}

StreamCore& ComputeUnit::stream_core(int i) {
  TM_REQUIRE(i >= 0 && i < stream_core_count(), "stream-core index range");
  return cores_[static_cast<std::size_t>(i)];
}

void ComputeUnit::set_probe(telemetry::ProbeSink* sink, std::uint32_t cu) {
  probe_ = sink;
  probe_cu_ = cu;
  for (std::size_t sc = 0; sc < cores_.size(); ++sc) {
    cores_[sc].set_probe(sink, cu, static_cast<std::uint16_t>(sc));
  }
}

void ComputeUnit::for_each_fpu(const std::function<void(ResilientFpu&)>& fn) {
  for (auto& core : cores_) core.for_each_fpu(fn);
}

} // namespace tmemo

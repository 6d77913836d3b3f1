#include "gpu/compute_unit.hpp"

#include <algorithm>
#include <bit>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "gpu/device.hpp"

namespace tmemo {

namespace {
/// Lane masks are 64-bit words (DeviceConfig::validate).
constexpr std::size_t kMaxLanes = 64;
} // namespace

ComputeUnit::ComputeUnit(const DeviceConfig& config, std::uint64_t seed,
                         std::shared_ptr<const FpuProgramming> programming)
    : wavefront_size_(config.wavefront_size),
      subwavefronts_(config.subwavefronts()) {
  TM_REQUIRE(config.wavefront_size <= static_cast<int>(kMaxLanes) &&
                 config.stream_cores_per_cu <= static_cast<int>(kMaxLanes),
             "lane masks are modeled with 64-bit words");
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
  // Records bound for the device's own accumulator are counted in place;
  // every other sink (trace writer, performance model, tests) gets each
  // one through ExecutionSink::consume.
  if (sink != nullptr && sink == accumulator_) {
    issue(op, static_id, a, b, c, active_mask, base_work_item, errors,
          accumulator_, results);
  } else {
    issue(op, static_id, a, b, c, active_mask, base_work_item, errors, sink,
          results);
  }
}

template <typename Sink>
void ComputeUnit::issue(FpOpcode op, StaticInstrId static_id, const float* a,
                        const float* b, const float* c,
                        std::uint64_t active_mask, WorkItemId base_work_item,
                        const TimingErrorModel& errors, Sink* sink,
                        float* results) {
  // Per-op invariants, derived once: the unit and its depth, the PE every
  // lane is steered to, and the golden results of all active lanes.
  const int arity = opcode_arity(op);
  const FpuType unit = opcode_unit(op);
  const int depth = fpu_latency_cycles(unit);
  const int pe = StreamCore::vliw_slot(unit, static_id);
  const std::uint64_t lanes =
      active_mask &
      (wavefront_size_ >= 64 ? ~0ull : (1ull << wavefront_size_) - 1);
  TMEMO_TELEM(probe_,
              telemetry::ProbeEvent{
                  telemetry::ProbeEvent::Kind::kWavefrontIssue,
                  static_cast<std::uint8_t>(unit), 0, 0, probe_cu_,
                  static_cast<std::uint64_t>(std::popcount(lanes))});
  std::array<float, kMaxLanes> exact;
  evaluate_fp_op(op, a, b, c, lanes, exact.data());

  // Spatial memoization (reference [20]): the first active lane is the
  // master; subsequent lanes whose operands match it under the spatial
  // constraint reuse its broadcast result without touching their FPUs.
  SpatialMaster master;
  SpatialStats& sstats = spatial_stats_[static_cast<std::size_t>(unit)];

  // Stream core j's FPU for this op, resolved at its first active lane.
  const int cores = static_cast<int>(cores_.size());
  std::array<ResilientFpu*, kMaxLanes> fpus;
  std::fill_n(fpus.begin(), cores, nullptr);
  const std::uint64_t core_mask = cores >= 64 ? ~0ull : (1ull << cores) - 1;

  for (int sub = 0; sub < subwavefronts_; ++sub) {
    const int first_lane = sub * cores;
    for (std::uint64_t m = (lanes >> first_lane) & core_mask; m != 0;
         m &= m - 1) {
      const int sc = std::countr_zero(m);
      const int lane = first_lane + sc;

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
          rec.gated_stage_cycles = depth;
          rec.latency_cycles = depth;
          rec.result = master.result();
          rec.exact_result = exact[static_cast<std::size_t>(lane)];
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

      ResilientFpu*& fpu = fpus[static_cast<std::size_t>(sc)];
      if (fpu == nullptr) {
        fpu = &cores_[static_cast<std::size_t>(sc)].steered_fpu(pe, unit);
      }
      ExecutionRecord rec =
          fpu->execute(ins, errors, exact[static_cast<std::size_t>(lane)]);
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

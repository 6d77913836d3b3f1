// One compute unit: 16 stream cores executing a wavefront in SIMD
// lock-step, time-multiplexed over four sub-wavefronts (paper §3).
//
// The unit of issue at this modeling level is one *static vector
// instruction*: the same opcode applied across all active lanes of a
// wavefront. Execution order is exactly the hardware's: sub-wavefront 0
// (lanes 0..15 on stream cores 0..15), then sub-wavefront 1 (lanes 16..31),
// and so on — so stream core j's FPUs see lanes j, j+16, j+32, j+48
// back-to-back. This ordering is what creates the congested temporal value
// locality that the 2-entry LUTs capture.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fpu/instruction.hpp"
#include "gpu/device_config.hpp"
#include "gpu/stream_core.hpp"
#include "memo/spatial.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Receives every ExecutionRecord produced by the device (energy
/// accounting, tracing, tests).
class ExecutionSink {
 public:
  virtual ~ExecutionSink() = default;
  virtual void consume(const ExecutionRecord& record) = 0;
};

class EnergyAccumulator; // gpu/device.hpp

class ComputeUnit {
 public:
  /// `programming` is the device-wide FPU programming the stream cores
  /// follow; null gives the unit its own, from `config.fpu`.
  ComputeUnit(const DeviceConfig& config, std::uint64_t seed,
              std::shared_ptr<const FpuProgramming> programming = nullptr);

  /// Executes one static vector instruction across the wavefront.
  ///
  /// `a`, `b`, `c` point to per-lane operand arrays (length >= wavefront
  /// size; unused operand slots may be null). Bit i of `active_mask`
  /// selects lane i. Results are written to `results` for active lanes;
  /// inactive lanes are left untouched. `sink` (may be null) receives one
  /// record per active lane in issue order; when it is the accumulator set
  /// by set_energy_accumulator(), the records are counted in place.
  void execute_wavefront_op(FpOpcode op, StaticInstrId static_id,
                            const float* a, const float* b, const float* c,
                            std::uint64_t active_mask,
                            WorkItemId base_work_item,
                            const TimingErrorModel& errors,
                            ExecutionSink* sink, float* results);

  /// The owning device's energy accumulator (null: none). A sink equal to
  /// it is fed without a virtual call per lane. The device rebinds it when
  /// it moves, as it rebinds the accumulator itself.
  void set_energy_accumulator(EnergyAccumulator* accumulator) noexcept {
    accumulator_ = accumulator;
  }

  [[nodiscard]] int stream_core_count() const noexcept {
    return static_cast<int>(cores_.size());
  }
  [[nodiscard]] StreamCore& stream_core(int i);

  /// Applies `fn` to every FPU of the unit, creating the ones not used yet.
  void for_each_fpu(const std::function<void(ResilientFpu&)>& fn);

  /// Applies `fn` to the FPUs created so far.
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) {
    for (auto& core : cores_) core.for_each_created_fpu(fn);
  }
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) const {
    for (const auto& core : cores_) core.for_each_created_fpu(fn);
  }

  /// Destroys every created FPU (see StreamCore::drop_fpus).
  void drop_fpus() noexcept {
    for (auto& core : cores_) core.drop_fpus();
  }

  /// Attaches (nullptr detaches) a telemetry sink to this unit and every
  /// stream core / FPU beneath it; `cu` is this unit's device index.
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu);

  // -- Spatial memoization (reference [20]; see memo/spatial.hpp) ----------

  /// Enables the cross-lane master/broadcast path for every instruction.
  void set_spatial_memoization(bool on) noexcept { spatial_ = on; }
  [[nodiscard]] bool spatial_memoization() const noexcept { return spatial_; }

  /// The matching constraint the spatial comparators apply (the device
  /// keeps this in sync with the memory-mapped register programming).
  void set_spatial_constraint(const MatchConstraint& c) noexcept {
    spatial_constraint_ = c;
  }

  /// Per-unit-type spatial reuse statistics.
  [[nodiscard]] const std::array<SpatialStats, kNumFpuTypes>&
  spatial_stats() const noexcept {
    return spatial_stats_;
  }
  void reset_spatial_stats() noexcept { spatial_stats_ = {}; }

 private:
  /// execute_wavefront_op's body, for the device accumulator (direct call)
  /// or any other sink (virtual call).
  template <typename Sink>
  void issue(FpOpcode op, StaticInstrId static_id, const float* a,
             const float* b, const float* c, std::uint64_t active_mask,
             WorkItemId base_work_item, const TimingErrorModel& errors,
             Sink* sink, float* results);

  int wavefront_size_;
  int subwavefronts_;
  std::vector<StreamCore> cores_;
  EnergyAccumulator* accumulator_ = nullptr;
  telemetry::ProbeSink* probe_ = nullptr;
  std::uint32_t probe_cu_ = 0;

  bool spatial_ = false;
  MatchConstraint spatial_constraint_ = MatchConstraint::exact();
  std::array<SpatialStats, kNumFpuTypes> spatial_stats_{};
  Xorshift128 spatial_rng_{0xb0adca57ull};
};

} // namespace tmemo

// Cycle-stepped model of one resilient FPU.
//
// ResilientFpu (memo/resilient_fpu.hpp) accounts per instruction in one
// transaction; this engine executes the same architecture cycle by cycle:
// stage-by-stage pipeline occupancy, the LUT lookup in parallel with stage
// 1, the hit/clock-gate signal rippling down the pipeline, the EDS error
// flag traveling to the ECU, and the recovery sequence — flush of the
// younger in-flight instructions, a fixed replay stall, then re-issue.
//
// LUT semantics (also the semantics the transactional model approximates):
// a FIFO entry is allocated at ISSUE with the instruction's operands and
// filled with the result at RETIREMENT (result forwarding). A later
// instruction that matches an allocated entry clock-gates immediately; the
// forwarded result reaches it by its own retirement because the producer
// is always at least one stage ahead. W_en-gating on errors invalidates
// the allocated entry, so errant results are never reused. This is why
// back-to-back instructions — e.g. the four sub-wavefront slots of one
// static instruction — CAN reuse each other's values even though the
// producer has not left the pipeline yet.
//
// The engine exists to validate the transactional accounting (see
// tests/gpu/cycle_fpu_test.cpp: identical hit/error/result streams) and to
// measure true cycle counts including recovery-induced refills.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "memo/resilient_fpu.hpp"

namespace tmemo {

/// Outcome of running one instruction stream to completion.
struct CycleRunResult {
  Cycle total_cycles = 0;          ///< first issue to last commit
  std::vector<float> results;      ///< committed value per instruction
  FpuStats stats;                  ///< same counters as ResilientFpu
  std::uint64_t flushed_issues = 0; ///< issue slots wasted by ECU flushes
};

/// Cycle-accurate single-FPU engine (see file comment).
class CycleAccurateFpu {
 public:
  CycleAccurateFpu(FpuType unit, const ResilientFpuConfig& config);

  [[nodiscard]] FpuType unit() const noexcept { return unit_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Feeds `stream` through the pipeline one cycle at a time until every
  /// instruction has committed; returns the cycle-accurate result.
  CycleRunResult run(std::span<const FpInstruction> stream,
                     const TimingErrorModel& errors);

  /// Attaches (nullptr detaches) a telemetry sink; same contract as
  /// ResilientFpu::set_probe.
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                 std::uint16_t core) noexcept {
    probe_ = sink;
    probe_cu_ = cu;
    probe_core_ = core;
  }

 private:
  /// Emission helper: stamps this FPU's identity onto a probe event.
  void probe(telemetry::ProbeEvent::Kind kind, std::uint64_t value = 0,
             std::uint8_t aux = 0) const {
    TMEMO_TELEM(probe_, telemetry::ProbeEvent{
                            kind, static_cast<std::uint8_t>(unit_), aux,
                            probe_core_, probe_cu_, value});
  }

  struct Slot {
    std::size_t index = 0;   ///< position in the stream
    float q_s = 0.0f;        ///< datapath result
    float q_l = 0.0f;        ///< forwarded LUT result (valid when hit)
    bool hit = false;
    bool error = false;      ///< EDS flag (drawn at issue)
  };

  FpuType unit_;
  int depth_;
  MemoLut lut_;
  MemoRegisterFile regs_;
  EdsSensorBank eds_;
  Ecu ecu_;
  telemetry::ProbeSink* probe_ = nullptr;
  std::uint32_t probe_cu_ = 0;
  std::uint16_t probe_core_ = 0;
};

} // namespace tmemo

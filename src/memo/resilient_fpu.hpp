// A resilient FPU: one pipelined FP unit instrumented with EDS sensors, an
// ECU recovery path, and the tightly coupled temporal-memoization module
// (Fig. 9 of the paper).
//
// The class offers a transactional per-instruction interface — execute()
// consumes one dynamic instruction and returns a complete ExecutionRecord —
// which is what the GPGPU simulation layer drives. Cycle-level pipeline
// structure (occupancy, flush) is modeled by FpuPipeline and exercised by
// the unit tests; the transaction interface accounts latency and stage
// activity consistently with that structure without stepping every cycle,
// which keeps multi-million-instruction workloads tractable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "fpu/instruction.hpp"
#include "fpu/opcode.hpp"
#include "fpu/semantics.hpp"
#include "inject/fault_config.hpp"
#include "inject/lut_injector.hpp"
#include "memo/lut.hpp"
#include "memo/module.hpp"
#include "memo/registers.hpp"
#include "telemetry/probe.hpp"
#include "timing/ecu.hpp"
#include "timing/eds.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Everything that happened while executing one instruction on one FPU.
/// The energy model converts these records into picojoules; the statistics
/// layer aggregates them into the paper's hit-rate and recovery figures.
struct ExecutionRecord {
  FpuType unit = FpuType::kAdd;
  FpOpcode opcode = FpOpcode::kAdd;
  WorkItemId work_item = 0;       ///< issuing work-item (tracing)
  StaticInstrId static_id = 0;    ///< static instruction index (tracing)
  MemoAction action = MemoAction::kNormalExecution;

  bool lut_hit = false;        ///< matching constraint satisfied
  bool timing_error = false;   ///< EDS flagged this instruction
  bool error_masked = false;   ///< hit suppressed the error signal
  bool recovered = false;      ///< baseline ECU recovery ran
  bool lut_updated = false;    ///< W_en fired (error-free miss)
  bool memo_enabled = false;   ///< module was powered for this op

  int active_stage_cycles = 0; ///< FPU stage-cycles that actually toggled
  int gated_stage_cycles = 0;  ///< stage-cycles squashed by clock gating
  int recovery_cycles = 0;     ///< extra cycles spent in ECU recovery
  int latency_cycles = 0;      ///< observed issue-to-commit latency
  int lut_lookups = 0;         ///< LUT read accesses (0 when power-gated)
  int lut_writes = 0;          ///< LUT FIFO writes
  bool spatial_reuse = false;  ///< lane served by the spatial broadcast
  int spatial_compares = 0;    ///< lane-vs-master comparator activations

  // Fault-injection outcomes (all false/0 with injection off).
  int lut_seu_flips = 0;           ///< SEU bits flipped during this op
  bool eds_false_negative = false; ///< real violation, flag suppressed
  bool eds_false_positive = false; ///< spurious flag, wasted recovery
  bool corrupt_reuse = false;      ///< hit served from an SEU-flipped line
  bool sdc = false;                ///< silently corrupted value committed

  float result = 0.0f;         ///< architecturally committed value (Q_pipe)
  float exact_result = 0.0f;   ///< golden datapath value (for fidelity)
  std::array<float, kMaxOperands> operands{};  ///< source operand values
};

/// Aggregate per-FPU execution statistics.
struct FpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t hits = 0;
  std::uint64_t timing_errors = 0;
  std::uint64_t masked_errors = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_cycles = 0;
  std::uint64_t active_stage_cycles = 0;
  std::uint64_t gated_stage_cycles = 0;
  std::uint64_t lut_updates = 0;
  // Fault-injection accounting (all zero with injection off; see
  // docs/FAULT_INJECTION.md for the SDC definition).
  std::uint64_t seu_flips = 0;            ///< LUT bits upset while live
  std::uint64_t parity_invalidations = 0; ///< corrupt lines parity dropped
  std::uint64_t corrupt_reuses = 0;       ///< hits served from flipped lines
  std::uint64_t eds_false_negatives = 0;  ///< violations the sensors missed
  std::uint64_t eds_false_positives = 0;  ///< spurious flags (wasted replays)
  std::uint64_t sdc_ops = 0;              ///< ops that committed silent corruption

  [[nodiscard]] double hit_rate() const noexcept {
    return instructions == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(instructions);
  }

  FpuStats& operator+=(const FpuStats& o) noexcept {
    instructions += o.instructions;
    hits += o.hits;
    timing_errors += o.timing_errors;
    masked_errors += o.masked_errors;
    recoveries += o.recoveries;
    recovery_cycles += o.recovery_cycles;
    active_stage_cycles += o.active_stage_cycles;
    gated_stage_cycles += o.gated_stage_cycles;
    lut_updates += o.lut_updates;
    seu_flips += o.seu_flips;
    parity_invalidations += o.parity_invalidations;
    corrupt_reuses += o.corrupt_reuses;
    eds_false_negatives += o.eds_false_negatives;
    eds_false_positives += o.eds_false_positives;
    sdc_ops += o.sdc_ops;
    return *this;
  }
};

/// Configuration of one resilient FPU instance.
struct ResilientFpuConfig {
  int lut_depth = 2;  ///< FIFO entries (paper final design: 2)
  RecoveryPolicy recovery = RecoveryPolicy::kMultipleIssueReplay;
  std::uint64_t eds_seed = 1;  ///< deterministic EDS sampling stream
  /// Fault injection + hardening knobs; default = fault-free hardware. The
  /// injector's RNG stream derives from eds_seed (so per-FPU streams stay
  /// unique through the device's mix_seed fan-out) and is never drawn from
  /// while injection is off.
  inject::FaultInjectionConfig inject;
};

/// One FPU + EDS + ECU + temporal-memoization module.
class ResilientFpu {
 public:
  ResilientFpu(FpuType unit, const ResilientFpuConfig& config);

  [[nodiscard]] FpuType unit() const noexcept { return unit_; }
  [[nodiscard]] int pipeline_depth() const noexcept { return depth_; }

  /// The module's memory-mapped register file (application-visible).
  [[nodiscard]] MemoRegisterFile& registers() noexcept { return regs_; }
  [[nodiscard]] const MemoRegisterFile& registers() const noexcept {
    return regs_;
  }

  /// Direct LUT access (preloading, inspection, tests).
  [[nodiscard]] MemoLut& lut() noexcept { return lut_; }
  [[nodiscard]] const MemoLut& lut() const noexcept { return lut_; }

  [[nodiscard]] const Ecu& ecu() const noexcept { return ecu_; }
  [[nodiscard]] const FpuStats& stats() const noexcept { return stats_; }

  /// Executes one dynamic instruction under the given timing-error model
  /// and returns the full record. Deterministic for a fixed seed sequence.
  ExecutionRecord execute(const FpInstruction& ins,
                          const TimingErrorModel& errors) {
    ExecutionRecord rec = execute(ins, errors, evaluate_fp_op(ins));
    return rec;
  }

  /// execute() with the golden datapath value of `ins` already computed
  /// (`exact` == evaluate_fp_op(ins)); a compute unit evaluates a whole
  /// wavefront op at once. Defined below the class, in this header, and
  /// always inlined: the issue loop then holds the whole transaction, and
  /// record fields no consumer reads are never written.
  [[gnu::always_inline]] ExecutionRecord execute(
      const FpInstruction& ins, const TimingErrorModel& errors, float exact);

  /// Clears statistics and the ECU counters but keeps LUT contents and
  /// register programming (a new measurement window).
  void reset_stats();

  /// Power-gates / un-gates the module (clears LUT state when gating, as
  /// the storage loses its contents).
  void set_power_gated(bool gated);
  [[nodiscard]] bool power_gated() const noexcept { return power_gated_; }

  /// Attaches (nullptr detaches) a telemetry sink; `cu`/`core` identify
  /// this FPU's position for event attribution. With no sink attached the
  /// execute() hot path pays one null-check per probe site (see
  /// telemetry/probe.hpp for the zero-overhead contract).
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                 std::uint16_t core) noexcept {
    probe_ = sink;
    probe_cu_ = cu;
    probe_core_ = core;
    ecu_.set_probe(sink, cu, core);
  }

 private:
  /// Emission helper: stamps this FPU's identity onto a probe event.
  void probe(telemetry::ProbeEvent::Kind kind, std::uint64_t value = 0,
             std::uint8_t aux = 0) const {
    TMEMO_TELEM(probe_, telemetry::ProbeEvent{
                            kind, static_cast<std::uint8_t>(unit_), aux,
                            probe_core_, probe_cu_, value});
  }

  FpuType unit_;
  int depth_;
  MemoLut lut_;
  MemoRegisterFile regs_;
  EdsSensorBank eds_;
  Ecu ecu_;
  inject::FaultInjectionConfig inject_;
  inject::LutFaultInjector injector_;
  FpuStats stats_;
  bool power_gated_ = false;
  telemetry::ProbeSink* probe_ = nullptr;
  std::uint32_t probe_cu_ = 0;
  std::uint16_t probe_core_ = 0;
};

inline ExecutionRecord ResilientFpu::execute(const FpInstruction& ins,
                                             const TimingErrorModel& errors,
                                             float exact) {
  ExecutionRecord rec;
  rec.unit = unit_;
  rec.opcode = ins.opcode;
  rec.work_item = ins.work_item;
  rec.static_id = ins.static_id;
  rec.operands = ins.operands;
  rec.exact_result = exact;
  rec.memo_enabled = !power_gated_ && regs_.enabled();

  // 0. Fault environment for this op. The SEU process advances by this
  //    op's pipeline occupancy; a tripped watchdog applies its degradation
  //    before the lookup/sampling below. Everything in this block is gated
  //    behind injection-on checks, so the fault-free path is unchanged.
  const bool storm = ecu_.storm_tripped();
  if (storm &&
      ecu_.watchdog().action == inject::WatchdogAction::kDisableMemoization) {
    rec.memo_enabled = false;
  }
  if (inject_.lut.enabled() && !power_gated_) {
    const int flips = injector_.advance(lut_, depth_);
    if (flips > 0) {
      rec.lut_seu_flips = flips;
      stats_.seu_flips += static_cast<std::uint64_t>(flips);
      probe(telemetry::ProbeEvent::Kind::kLutSeuFlip,
            static_cast<std::uint64_t>(flips));
    }
  }

  // 1. LUT lookup, performed in parallel with the first FPU stage.
  MemoLut::LookupResult memorized;
  if (rec.memo_enabled) {
    const std::uint64_t parity_before = lut_.stats().parity_invalidations;
    memorized = lut_.lookup_checked(ins, regs_.constraint());
    rec.lut_lookups = 1;
    const std::uint64_t dropped =
        lut_.stats().parity_invalidations - parity_before;
    if (dropped > 0) {
      stats_.parity_invalidations += dropped;
      probe(telemetry::ProbeEvent::Kind::kLutParityDrop, dropped);
    }
  }
  rec.lut_hit = memorized.hit;
  if (rec.lut_lookups > 0) {
    probe(rec.lut_hit ? telemetry::ProbeEvent::Kind::kLutHit
                      : telemetry::ProbeEvent::Kind::kLutMiss);
  }

  // 2. EDS sensors sample the datapath. On a hit the remaining stages are
  //    clock-gated, so only the first stage (which ran in parallel with the
  //    lookup) can raise a violation; the per-op draw covers whichever
  //    stages actually toggled. The flag is suppressed before reaching the
  //    ECU in the {1,1} state. A raised guardband (watchdog degradation)
  //    makes violations impossible, so the sensors are not sampled at all.
  EdsObservation eds;
  const bool guardband_raised =
      storm &&
      ecu_.watchdog().action == inject::WatchdogAction::kRaiseGuardband;
  if (!guardband_raised) eds = eds_.observe(errors);
  rec.timing_error = eds.error;
  if (eds.false_negative) {
    rec.eds_false_negative = true;
    ++stats_.eds_false_negatives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalseNegative);
  }
  if (eds.false_positive) {
    rec.eds_false_positive = true;
    ++stats_.eds_false_positives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalsePositive);
  }
  if (rec.timing_error) probe(telemetry::ProbeEvent::Kind::kEdsError);

  // 3. Table-2 decision, driven by the *observed* flag: a false negative
  //    behaves like a clean pass, a false positive like a real violation.
  rec.action = memo_action(rec.lut_hit, rec.timing_error);

  switch (rec.action) {
    case MemoAction::kNormalExecution: {
      rec.result = rec.exact_result;
      if (eds.false_negative) {
        // The violation was real but the flag never reached the ECU: the
        // errant datapath value commits silently. One fraction bit of the
        // exact result latches wrong, and — worse — the corrupted value is
        // what W_en memorizes, so later hits replay the corruption.
        rec.result = inject::flip_random_fraction_bit(rec.exact_result,
                                                      injector_.rng());
        rec.sdc = true;
      }
      rec.active_stage_cycles = depth_;
      rec.latency_cycles = depth_;
      if (rec.memo_enabled) {
        lut_.update(ins, rec.result);
        rec.lut_updated = true;
        rec.lut_writes = 1;
        probe(telemetry::ProbeEvent::Kind::kLutWrite);
      }
      break;
    }
    case MemoAction::kTriggerRecovery: {
      // The errant instruction is prevented from committing; the ECU
      // flushes and replays it. The replayed execution is error-free [9],
      // so the committed value is the exact result. The LUT is NOT updated:
      // W_en requires an error-free first-pass execution. A false-positive
      // flag pays the same replay cost for nothing — that waste is exactly
      // what EcuStats/FpuStats now make visible.
      rec.result = rec.exact_result;
      rec.active_stage_cycles = depth_; // errant pass toggled all stages
      rec.recovery_cycles = ecu_.recover(unit_, /*flushed_in_flight_ops=*/0);
      rec.latency_cycles = depth_ + rec.recovery_cycles;
      rec.recovered = true;
      break;
    }
    case MemoAction::kReuse:
    case MemoAction::kReuseMaskError: {
      // Q_L drives the output mux; stages 2..depth are squashed by the
      // forwarded clock-gating signal. Stage 1 already toggled in parallel
      // with the lookup. The memorized result propagates to the pipeline
      // end, so observed latency equals the pipeline depth.
      rec.result = memorized.value;
      if (memorized.corrupted) {
        // The matched line absorbed SEU flips after it was written: the
        // operand comparison and/or the forwarded Q_L used upset bits, so
        // the committed value is untrustworthy — silent data corruption
        // (parity protection would have invalidated odd-flip lines before
        // the match; see MemoLut::lookup_checked).
        rec.corrupt_reuse = true;
        rec.sdc = true;
        ++stats_.corrupt_reuses;
      }
      rec.active_stage_cycles = 1;
      rec.gated_stage_cycles = depth_ - 1;
      rec.latency_cycles = depth_;
      if (rec.action == MemoAction::kReuseMaskError) {
        rec.error_masked = true;
        ecu_.note_masked_error(unit_);
      }
      break;
    }
  }

  if (rec.sdc) {
    ++stats_.sdc_ops;
    probe(telemetry::ProbeEvent::Kind::kSdcCommit);
  }

  // 4. Statistics.
  ++stats_.instructions;
  stats_.hits += rec.lut_hit ? 1 : 0;
  stats_.timing_errors += rec.timing_error ? 1 : 0;
  stats_.masked_errors += rec.error_masked ? 1 : 0;
  stats_.recoveries += rec.recovered ? 1 : 0;
  stats_.recovery_cycles += static_cast<std::uint64_t>(rec.recovery_cycles);
  stats_.active_stage_cycles +=
      static_cast<std::uint64_t>(rec.active_stage_cycles);
  stats_.gated_stage_cycles +=
      static_cast<std::uint64_t>(rec.gated_stage_cycles);
  stats_.lut_updates += rec.lut_updated ? 1 : 0;
  regs_.latch_status_hits(stats_.hits);
  probe(telemetry::ProbeEvent::Kind::kOpRetired,
        static_cast<std::uint64_t>(rec.latency_cycles),
        static_cast<std::uint8_t>(rec.action));
  return rec;
}

} // namespace tmemo

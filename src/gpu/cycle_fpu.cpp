#include "gpu/cycle_fpu.hpp"

#include "common/require.hpp"
#include "fpu/semantics.hpp"

namespace tmemo {

CycleAccurateFpu::CycleAccurateFpu(FpuType unit,
                                   const ResilientFpuConfig& config)
    : unit_(unit),
      depth_(fpu_latency_cycles(unit)),
      lut_(config.lut_depth),
      eds_(unit, config.eds_seed, config.inject.eds),
      ecu_(config.recovery, config.inject.watchdog) {}

CycleRunResult CycleAccurateFpu::run(std::span<const FpInstruction> stream,
                                     const TimingErrorModel& errors) {
  CycleRunResult out;
  out.results.assign(stream.size(), 0.0f);

  // The pipeline: stages_[0] is the issue stage; an instruction commits
  // when it leaves stages_[depth_-1].
  std::vector<std::optional<Slot>> stages(
      static_cast<std::size_t>(depth_));
  std::size_t next_issue = 0;   ///< stream index of the next issue
  std::size_t committed = 0;    ///< instructions committed so far
  int stall_cycles = 0;         ///< remaining ECU recovery stall
  std::optional<Slot> recovering; ///< the errant instruction being replayed
  Cycle cycle = 0;

  while (committed < stream.size()) {
    TM_REQUIRE(cycle < 1000ull * (stream.size() + 64),
               "cycle engine failed to make progress");
    ++cycle;

    if (stall_cycles > 0) {
      // ECU recovery in progress: the pipeline is frozen.
      --stall_cycles;
      out.stats.recovery_cycles += 1;
      if (stall_cycles == 0) {
        // The replay commits the errant instruction's exact result.
        TM_ASSERT(recovering.has_value());
        out.results[recovering->index] = recovering->q_s;
        ++committed;
        ++out.stats.instructions;
        probe(telemetry::ProbeEvent::Kind::kOpRetired,
              static_cast<std::uint64_t>(cycle),
              static_cast<std::uint8_t>(MemoAction::kTriggerRecovery));
        recovering.reset();
      }
      continue;
    }

    // 1. Commit stage: the instruction leaving the last stage.
    if (stages.back().has_value()) {
      Slot slot = *stages.back();
      stages.back().reset();
      const FpInstruction& ins = stream[slot.index];
      if (slot.hit) {
        // Q_L committed; a concurrent EDS flag is masked.
        out.results[slot.index] = slot.q_l;
        ++committed;
        ++out.stats.instructions;
        ++out.stats.hits;
        out.stats.gated_stage_cycles +=
            static_cast<std::uint64_t>(depth_ - 1);
        out.stats.active_stage_cycles += 1;
        if (slot.error) {
          ++out.stats.timing_errors;
          ++out.stats.masked_errors;
          // The ECU keeps the masked-vs-recovered distinction in its
          // own stats.
          ecu_.note_masked_error(unit_);
          probe(telemetry::ProbeEvent::Kind::kErrorMasked);
        }
        probe(telemetry::ProbeEvent::Kind::kOpRetired,
              static_cast<std::uint64_t>(depth_),
              static_cast<std::uint8_t>(slot.error
                                            ? MemoAction::kReuseMaskError
                                            : MemoAction::kReuse));
      } else if (slot.error) {
        // Errant miss: flush the younger in-flight instructions and start
        // the ECU replay. The flushed instructions re-issue afterwards.
        ++out.stats.timing_errors;
        ++out.stats.recoveries;
        out.stats.active_stage_cycles += static_cast<std::uint64_t>(depth_);
        std::size_t oldest_flushed = stream.size();
        for (auto& s : stages) {
          if (s.has_value()) {
            oldest_flushed = std::min(oldest_flushed, s->index);
            ++out.flushed_issues;
            s.reset();
          }
        }
        if (oldest_flushed < next_issue) next_issue = oldest_flushed;
        const bool storm = ecu_.storm_tripped();
        stall_cycles = ecu_.recover(unit_, 0);
        probe(telemetry::ProbeEvent::Kind::kEcuReplay,
              static_cast<std::uint64_t>(stall_cycles));
        if (!storm && ecu_.storm_tripped()) {
          probe(telemetry::ProbeEvent::Kind::kWatchdogTrip,
                ecu_.stats().recovery_cycles);
        }
        recovering = slot;
        continue; // the stall starts next cycle
      } else {
        // Clean miss: commit Q_S. The FIFO entry was already allocated at
        // issue (result forwarding); W_en confirmed it error-free.
        (void)ins;
        out.results[slot.index] = slot.q_s;
        ++committed;
        ++out.stats.instructions;
        out.stats.active_stage_cycles += static_cast<std::uint64_t>(depth_);
        probe(telemetry::ProbeEvent::Kind::kOpRetired,
              static_cast<std::uint64_t>(depth_),
              static_cast<std::uint8_t>(MemoAction::kNormalExecution));
      }
    }

    // 2. Advance the remaining stages (in reverse to avoid overwrites).
    for (std::size_t i = stages.size(); i-- > 1;) {
      if (!stages[i].has_value() && stages[i - 1].has_value()) {
        stages[i] = stages[i - 1];
        stages[i - 1].reset();
      }
    }

    // 3. Issue stage: one instruction per cycle, LUT lookup in parallel.
    if (!stages.front().has_value() && next_issue < stream.size()) {
      const FpInstruction& ins = stream[next_issue];
      Slot slot;
      slot.index = next_issue++;
      slot.q_s = evaluate_fp_op(ins);
      const auto memorized = lut_.lookup(ins, regs_.constraint());
      slot.hit = memorized.has_value();
      if (slot.hit) slot.q_l = *memorized;
      probe(slot.hit ? telemetry::ProbeEvent::Kind::kLutHit
                     : telemetry::ProbeEvent::Kind::kLutMiss);
      slot.error = eds_.observe(errors).error;
      if (slot.error) probe(telemetry::ProbeEvent::Kind::kEdsError);
      // Result forwarding: allocate the FIFO entry now so the instructions
      // right behind can already match it; W_en suppresses the allocation
      // for errant executions.
      if (!slot.hit && !slot.error) {
        lut_.update(ins, slot.q_s);
        ++out.stats.lut_updates;
        probe(telemetry::ProbeEvent::Kind::kLutWrite);
      }
      stages.front() = slot;
    }
  }

  out.total_cycles = cycle;
  return out;
}

} // namespace tmemo

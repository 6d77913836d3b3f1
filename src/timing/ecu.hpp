// Error control unit (ECU) and recovery policies.
//
// When an EDS error flag reaches the end of an FPU pipeline, the ECU
// prevents the errant instruction from committing and triggers a recovery
// mechanism. The library models the three mechanisms discussed in the
// paper:
//
//  * kMultipleIssueReplay — the baseline used throughout the evaluation:
//    flush the pipeline and re-issue the errant instruction multiple times
//    at the same frequency (Bowman et al. [9]); costs a fixed 12 cycles per
//    error for the 4-stage Evergreen FPU (paper §5.1).
//  * kHalfFrequencyReplay — replay at half clock frequency; costs
//    2x the pipeline refill plus the flush (up to 28 cycles for the 7-stage
//    core of [9]; scaled by depth here).
//  * kDecouplingQueues — the SIMD decoupling scheme of Pawlowski et al.
//    [11]: private queues let each lane recover independently via local
//    clock-gating; nominally one stall cycle per error over a 2-stage unit,
//    scaled by the deeper Evergreen pipeline plus the cost of propagating
//    the stall.
#pragma once

#include <cstdint>

#include "common/require.hpp"
#include "common/types.hpp"
#include "fpu/opcode.hpp"
#include "inject/fault_config.hpp"

namespace tmemo {

/// Recovery mechanism selector.
enum class RecoveryPolicy : std::uint8_t {
  kMultipleIssueReplay,
  kHalfFrequencyReplay,
  kDecouplingQueues,
};

[[nodiscard]] const char* recovery_policy_name(RecoveryPolicy p) noexcept;

/// Cycle cost of recovering one errant instruction on a `unit`-type FPU.
[[nodiscard]] int recovery_cycles(RecoveryPolicy policy, FpuType unit);

/// Aggregate ECU statistics for one FPU (or one summed group).
struct EcuStats {
  std::uint64_t errors_signaled = 0;   ///< EDS flags raised (incl. masked)
  std::uint64_t masked_errors = 0;     ///< flags the memo module suppressed
  std::uint64_t recoveries = 0;        ///< recovery sequences triggered
  std::uint64_t recovery_cycles = 0;   ///< total cycles spent recovering
  std::uint64_t flushed_ops = 0;       ///< in-flight ops squashed by flushes
  std::uint64_t watchdog_trips = 0;    ///< replay-storm watchdog activations

  EcuStats& operator+=(const EcuStats& o) noexcept {
    errors_signaled += o.errors_signaled;
    masked_errors += o.masked_errors;
    recoveries += o.recoveries;
    recovery_cycles += o.recovery_cycles;
    flushed_ops += o.flushed_ops;
    watchdog_trips += o.watchdog_trips;
    return *this;
  }
};

/// The ECU attached to one FPU pipeline. It is purely an accounting state
/// machine at this modeling level: the replayed result is the exact
/// functional result (the replay runs with a relaxed guardband and cannot
/// err again, as in [9]).
class Ecu {
 public:
  explicit Ecu(RecoveryPolicy policy = RecoveryPolicy::kMultipleIssueReplay,
               const inject::WatchdogConfig& watchdog = {})
      : policy_(policy), watchdog_(watchdog) {}

  [[nodiscard]] RecoveryPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const inject::WatchdogConfig& watchdog() const noexcept {
    return watchdog_;
  }

  /// Handles one error signal for `unit`; returns the recovery cycle cost.
  int recover(FpuType unit, int flushed_in_flight_ops) {
    TM_REQUIRE(flushed_in_flight_ops >= 0, "flushed op count must be >= 0");
    const int cycles = recovery_cycles(policy_, unit);
    ++stats_.errors_signaled;
    ++stats_.recoveries;
    stats_.recovery_cycles += static_cast<std::uint64_t>(cycles);
    stats_.flushed_ops += static_cast<std::uint64_t>(flushed_in_flight_ops);
    if (watchdog_.enabled() && !storm_tripped_ &&
        stats_.recovery_cycles > watchdog_.recovery_cycle_budget) {
      storm_tripped_ = true;
      ++stats_.watchdog_trips;
    }
    return cycles;
  }

  /// True once the cumulative recovery-cycle spend has exceeded the
  /// watchdog budget. Latched: the degradation (watchdog().action) persists
  /// for the rest of the FPU's life; reset_stats() starts a new measurement
  /// window but does not un-degrade the hardware.
  [[nodiscard]] bool storm_tripped() const noexcept { return storm_tripped_; }

  /// Records an error flag that was masked before reaching recovery (the
  /// memoization module's {Hit=1, Error=1} state). Counted both as a
  /// signaled error and, separately, as a masked one, so masked and
  /// recovered errors are distinguishable in EcuStats. `unit` names the
  /// executing FPU type, as for recover().
  void note_masked_error(FpuType /*unit*/) {
    ++stats_.errors_signaled;
    ++stats_.masked_errors;
  }

  [[nodiscard]] const EcuStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  RecoveryPolicy policy_;
  inject::WatchdogConfig watchdog_;
  bool storm_tripped_ = false;
  EcuStats stats_;
};

} // namespace tmemo

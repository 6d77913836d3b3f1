// Fault-injection configuration: the knobs that make the modeled recovery
// machinery itself imperfect (docs/FAULT_INJECTION.md).
//
// The paper assumes ideal support hardware: EDS sensors that never miss or
// misfire and a memo LUT whose SRAM never upsets. This header parameterizes
// three departures from that ideal — soft errors in the LUT storage,
// detector false negatives/positives, and a replay-storm watchdog — plus
// the hardening knobs (per-entry parity, graceful degradation) that defend
// against them. All structs are plain aggregates with zero-valued defaults;
// a default-constructed FaultInjectionConfig models the paper's fault-free
// hardware exactly, and every consumer gates its extra work (including RNG
// draws) behind the enabled() predicates so disabled injection is
// bit-identical to builds that predate this subsystem.
//
// This header depends only on <cstdint> and the header-only common/rng.hpp,
// so the innermost model layers (timing/, memo/) can include it freely.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace tmemo::inject {

/// What the ECU replay-storm watchdog does once it trips.
enum class WatchdogAction : std::uint8_t {
  /// Power down the memoization path: no more lookups or FIFO writes, so a
  /// corrupt LUT can no longer feed the commit mux.
  kDisableMemoization,
  /// Restore the full timing guardband (frequency/voltage derate): timing
  /// violations become impossible, ending the replay storm at a
  /// performance cost this model books as zero further error cycles.
  kRaiseGuardband,
};

[[nodiscard]] constexpr const char* watchdog_action_name(
    WatchdogAction a) noexcept {
  return a == WatchdogAction::kDisableMemoization ? "disable-memoization"
                                                  : "raise-guardband";
}

/// Soft errors in the memo LUT storage cells.
struct LutFaultConfig {
  /// Expected single-bit upsets per FPU cycle for the whole LUT (a Poisson
  /// process in cycles; each upset flips one uniformly chosen bit of one
  /// uniformly chosen live entry's operand or result words). 0 = no SEUs.
  double seu_per_cycle = 0.0;
  /// Hardening: one parity bit per entry, checked by the comparator bank on
  /// every lookup. Entries with an odd number of accumulated flips are
  /// invalidated before matching; an even number of flips escapes parity,
  /// exactly as real single-parity SRAM does.
  bool parity = false;

  [[nodiscard]] bool enabled() const noexcept { return seu_per_cycle > 0.0; }
};

/// Imperfect EDS sensors (timing/eds.hpp).
struct EdsFaultConfig {
  /// P(flag suppressed | real timing violation): the errant value commits
  /// silently — the SDC path this subsystem exists to measure.
  double false_negative_rate = 0.0;
  /// P(spurious flag | no violation): a wasted ECU recovery sequence.
  double false_positive_rate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return false_negative_rate > 0.0 || false_positive_rate > 0.0;
  }
};

/// ECU replay-storm watchdog: trips once the cumulative recovery-cycle
/// spend crosses the budget, after which the configured action degrades the
/// FPU gracefully instead of letting it thrash in flush/replay loops.
struct WatchdogConfig {
  std::uint64_t recovery_cycle_budget = 0;  ///< 0 disables the watchdog
  WatchdogAction action = WatchdogAction::kDisableMemoization;

  [[nodiscard]] bool enabled() const noexcept {
    return recovery_cycle_budget > 0;
  }
};

/// All fault-injection knobs of one resilient FPU. Default-constructed =
/// fault-free hardware (the paper's model), at zero cost on the hot path.
struct FaultInjectionConfig {
  LutFaultConfig lut;
  EdsFaultConfig eds;
  WatchdogConfig watchdog;

  [[nodiscard]] bool any_faults() const noexcept {
    return lut.enabled() || eds.enabled();
  }
};

/// Derives an injector stream seed from the owning device/FPU seed (the
/// splitmix64 finalizer mix_seed, as derive_job_seed). Lint rule R8
/// (injection-seeding) requires every injector RNG to be seeded through an
/// expression like this one — never with a free-standing literal — so fault
/// campaigns replay bit-identically from the campaign seed alone.
[[nodiscard]] constexpr std::uint64_t derive_fault_seed(
    std::uint64_t seed, std::uint64_t salt) noexcept {
  return mix_seed(seed, salt);
}

} // namespace tmemo::inject

// Probe hooks: the zero-overhead-when-off instrumentation seam between the
// hot device model (gpu/, memo/, timing/) and the telemetry collector.
//
// Design contract (docs/OBSERVABILITY.md):
//  * A probe site is a `ProbeSink*` member that defaults to nullptr plus a
//    `TMEMO_TELEM(sink, event)` emission. With no sink attached the site is
//    one perfectly predicted null-check branch; compiled with
//    -DTMEMO_TELEMETRY_DISABLED the macro expands to nothing at all, so the
//    event-construction expression is never evaluated.
//  * This header is dependency-free (only <cstdint> and <type_traits>) so
//    the innermost layers — timing/ecu.hpp, memo/resilient_fpu.hpp — can
//    include it without creating a link-time dependency on tm_telemetry.
//  * ProbeEvent is a 24-byte trivially copyable struct: 17 bytes of fields
//    and 7 of alignment padding (after `aux`, `core` and `cu`), built at
//    the probe site and handed to the sink by const reference. Emission
//    order within one instruction transaction is fixed (lookup, error,
//    action, retire), which is what lets the collector rebuild per-op
//    state deterministically.
#pragma once

#include <cstdint>
#include <type_traits>

namespace tmemo::telemetry {

/// One observation from a hot execution path. `value` is kind-specific:
/// lanes for kWavefrontIssue, recovery cycles for kEcuReplay, latency
/// cycles for kOpRetired, and unused (0) otherwise. For kOpRetired, `aux`
/// carries the MemoAction that resolved the instruction.
struct ProbeEvent {
  enum class Kind : std::uint8_t {
    kWavefrontIssue, ///< one static vector instruction issued on a CU
    kLutHit,         ///< temporal LUT satisfied the matching constraint
    kLutMiss,        ///< LUT lookup performed, no matching entry
    kLutWrite,       ///< W_en fired (error-free miss wrote the FIFO)
    kEdsError,       ///< EDS sensors flagged a timing violation
    kErrorMasked,    ///< the {hit,error} state suppressed the ECU signal
    kEcuReplay,      ///< ECU flush-and-replay recovery sequence
    kSpatialReuse,   ///< lane served by the cross-lane broadcast network
    kOpRetired,      ///< one dynamic instruction committed
    // Fault-injection events (src/inject/, docs/FAULT_INJECTION.md). Only
    // emitted when injection is configured on; `value` carries the count
    // for the batched kinds (flips, drops) and is 0 otherwise.
    kLutSeuFlip,        ///< SEU bit flips landed in live LUT entries
    kLutParityDrop,     ///< corrupt LUT lines invalidated by parity
    kEdsFalseNegative,  ///< real violation, sensor flag suppressed
    kEdsFalsePositive,  ///< spurious sensor flag, wasted recovery
    kWatchdogTrip,      ///< replay-storm watchdog degraded the FPU
    kSdcCommit,         ///< silently corrupted value architecturally committed
  };

  Kind kind = Kind::kOpRetired;
  std::uint8_t unit = 0;  ///< FpuType index of the executing unit
  std::uint8_t aux = 0;   ///< kind-specific (MemoAction for kOpRetired)
  std::uint16_t core = 0; ///< stream core within the compute unit
  std::uint32_t cu = 0;   ///< compute unit
  std::uint64_t value = 0;
};
static_assert(sizeof(ProbeEvent) == 24);
static_assert(std::is_trivially_copyable_v<ProbeEvent>);

/// Receiver of probe events. Implementations (TelemetryCollector) are
/// attached per run and must not be shared across concurrently running
/// devices.
class ProbeSink {
 public:
  virtual ~ProbeSink() = default;
  virtual void on_event(const ProbeEvent& event) = 0;
};

} // namespace tmemo::telemetry

// The emission macro. `...` is the ProbeEvent construction expression; it
// is only evaluated when a sink is attached, and not even compiled when
// telemetry is disabled at build time (the CI overhead job builds both
// flavors and compares them).
#if defined(TMEMO_TELEMETRY_DISABLED)
// sizeof keeps the operands referenced (no unused-parameter warnings) while
// guaranteeing they are never evaluated: zero code is generated.
#define TMEMO_TELEM(sink, ...)   \
  do {                           \
    (void)sizeof((sink));        \
    (void)sizeof((__VA_ARGS__)); \
  } while (false)
#else
#define TMEMO_TELEM(sink, ...)       \
  do {                               \
    if ((sink) != nullptr) {         \
      (sink)->on_event(__VA_ARGS__); \
    }                                \
  } while (false)
#endif

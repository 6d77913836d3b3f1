// Probe hooks: the zero-overhead-when-off instrumentation seam between the
// hot device model (gpu/, memo/) and the telemetry collector.
//
// Design contract (docs/OBSERVABILITY.md):
//  * A probe site is a `ProbeSink*` member that defaults to nullptr. With no
//    sink attached it costs one perfectly predicted null check; compiled
//    with -DTMEMO_TELEMETRY_DISABLED it costs nothing (kProbesCompiledIn is
//    false and the TMEMO_TELEM macro expands to nothing, so the event
//    expression is never evaluated).
//  * On the campaign path the compute unit is the only emitter. It makes
//    the null check once per wavefront op, derives each lane's events from
//    its ExecutionRecord (lane_events() in memo/resilient_fpu.hpp) into one
//    stack-resident WavefrontOpBatch, and hands the sink the whole op in
//    one on_wavefront_op() call: the kWavefrontIssue, then per lane in
//    issue order its common kinds (kLutHit/kLutMiss, kLutWrite,
//    kSpatialReuse, kOpRetired) and rare kinds (kEdsError, kEcuReplay,
//    kErrorMasked and every fault-injection kind). A ResilientFpu with its
//    own probe attached (standalone use: perfbench's layer pass, unit
//    tests) emits the same lane events from the same lane_events(), one
//    on_event() call each; the cycle-accurate engine keeps its own
//    per-event probes.
//  * Emission order within one instruction transaction is fixed:
//    kLaneEmissionOrder below. A batch does not interleave lanes, it
//    records each lane's kind set, and "the order" is the one its
//    expansion (ProbeSink's default on_wavefront_op) yields: lanes in issue
//    order, each lane's events in kLaneEmissionOrder. That is exactly the
//    per-event stream, and the collector folds a batch into the same
//    state.
//  * This header is dependency-free (only standard headers) so the
//    innermost layers — memo/resilient_fpu.hpp — can include it without
//    creating a link-time dependency on tm_telemetry.
//  * ProbeEvent is a 24-byte trivially copyable struct: 17 bytes of fields
//    and 7 of alignment padding (after `aux`, `core` and `cu`), built at
//    the probe site and handed to the sink by const reference.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
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

#if defined(TMEMO_TELEMETRY_DISABLED)
inline constexpr bool kProbesCompiledIn = false;
#else
/// False when the probe sites are compiled out; batch emission tests it
/// with `if constexpr`.
inline constexpr bool kProbesCompiledIn = true;
#endif

/// The order in which one instruction transaction emits its events. A lane
/// emits a subset of these kinds, at most one event of each.
inline constexpr std::array<ProbeEvent::Kind, 14> kLaneEmissionOrder = {
    ProbeEvent::Kind::kLutSeuFlip,    ProbeEvent::Kind::kLutParityDrop,
    ProbeEvent::Kind::kLutHit,        ProbeEvent::Kind::kLutMiss,
    ProbeEvent::Kind::kEdsFalseNegative,
    ProbeEvent::Kind::kEdsFalsePositive,
    ProbeEvent::Kind::kEdsError,      ProbeEvent::Kind::kLutWrite,
    ProbeEvent::Kind::kEcuReplay,     ProbeEvent::Kind::kWatchdogTrip,
    ProbeEvent::Kind::kErrorMasked,   ProbeEvent::Kind::kSdcCommit,
    ProbeEvent::Kind::kSpatialReuse,  ProbeEvent::Kind::kOpRetired,
};

class ProbeSink;

/// Position of each kind in a lane's kind set, by ProbeEvent::Kind. The
/// five common kinds take the low bits, so `kinds & 31` indexes a table;
/// kWavefrontIssue is never a lane event.
inline constexpr std::array<std::uint8_t, 15> kLaneBitIndex = {
    15, // kWavefrontIssue
    0,  // kLutHit
    1,  // kLutMiss
    2,  // kLutWrite
    5,  // kEdsError
    6,  // kErrorMasked
    7,  // kEcuReplay
    3,  // kSpatialReuse
    4,  // kOpRetired
    8,  // kLutSeuFlip
    9,  // kLutParityDrop
    10, // kEdsFalseNegative
    11, // kEdsFalsePositive
    12, // kWatchdogTrip
    13, // kSdcCommit
};
constexpr unsigned lane_bit_index(ProbeEvent::Kind kind) noexcept {
  return kLaneBitIndex[static_cast<std::size_t>(kind)];
}

/// Bit of `kind` in a lane's kind set.
constexpr std::uint16_t kind_bit(ProbeEvent::Kind kind) noexcept {
  return static_cast<std::uint16_t>(1u << lane_bit_index(kind));
}

/// The events of one lane transaction: the set of kinds it emitted, the
/// action its kOpRetired carries, and the values of its value-carrying
/// kinds (kValuedKinds), in kLaneEmissionOrder. kOpRetired and
/// kSpatialReuse take their values from the pipeline latency instead (plus,
/// for kOpRetired, the lane's kEcuReplay cycles).
struct LaneEvents {
  static constexpr std::uint16_t kValuedKinds =
      kind_bit(ProbeEvent::Kind::kLutSeuFlip) |
      kind_bit(ProbeEvent::Kind::kLutParityDrop) |
      kind_bit(ProbeEvent::Kind::kEcuReplay) |
      kind_bit(ProbeEvent::Kind::kWatchdogTrip);
  /// The low five bits: kLutHit, kLutMiss, kLutWrite, kSpatialReuse and
  /// kOpRetired.
  static constexpr std::uint16_t kCommonKinds = 0x1f;
  /// Every kind but the common ones.
  static constexpr std::uint16_t kRareKinds =
      kValuedKinds | kind_bit(ProbeEvent::Kind::kEdsFalseNegative) |
      kind_bit(ProbeEvent::Kind::kEdsFalsePositive) |
      kind_bit(ProbeEvent::Kind::kEdsError) |
      kind_bit(ProbeEvent::Kind::kErrorMasked) |
      kind_bit(ProbeEvent::Kind::kSdcCommit);

  [[nodiscard]] bool has(ProbeEvent::Kind kind) const noexcept {
    return (kinds & kind_bit(kind)) != 0;
  }
  [[nodiscard]] bool rare() const noexcept { return (kinds & kRareKinds) != 0; }

  std::uint16_t kinds = 0;
  std::uint8_t action = 0; ///< MemoAction (0..3)
  std::array<std::uint64_t, 4> values{};
};

/// Emits one lane's events through `sink`, in kLaneEmissionOrder. `lane`
/// supplies the unit, compute unit and stream core of every event.
void emit_lane_events(ProbeSink& sink, const LaneEvents& events,
                      ProbeEvent lane, std::uint64_t latency);

/// The probe events of one static vector instruction on one compute unit,
/// as the unit hands them to its sink in one call. Lane i runs on stream
/// core i % cores, and lanes issue in index order. Each active lane keeps
/// one byte, its common kinds and action (`common`); lanes that emitted a
/// rare kind are also listed whole, values included, in issue order. Every
/// lane ends in exactly one of kOpRetired and kSpatialReuse, so lane i
/// starts one tick after the active lane before it. The arrays are left
/// uninitialised past what was written, so a compute unit builds one on
/// its stack per op.
struct WavefrontOpBatch {
  static constexpr std::size_t kMaxLanes = 64;

  struct RareLane {
    std::uint32_t lane;
    LaneEvents events;
  };

  WavefrontOpBatch(std::uint32_t op_cu, std::uint8_t op_unit,
                   std::uint16_t op_cores, std::uint64_t op_latency,
                   std::uint64_t op_active) noexcept
      : cu(op_cu),
        unit(op_unit),
        cores(op_cores),
        latency(op_latency),
        active(op_active) {}

  /// Records the events of lane `lane`, which must be in `active`; lanes
  /// are added in issue order.
  void add(unsigned lane, const LaneEvents& ev) noexcept {
    common[lane] = static_cast<std::uint8_t>(
        (ev.kinds & LaneEvents::kCommonKinds) | ((ev.action & 3u) << 5));
    if (ev.rare()) [[unlikely]] rare[rare_count++] = RareLane{lane, ev};
  }

  /// Lane `lane`'s events, values included.
  [[nodiscard]] LaneEvents lane_events(unsigned lane) const noexcept {
    for (std::uint32_t i = 0; i < rare_count; ++i) {
      if (rare[i].lane == lane) return rare[i].events;
    }
    LaneEvents ev;
    ev.kinds = common[lane] & LaneEvents::kCommonKinds;
    ev.action = static_cast<std::uint8_t>(common[lane] >> 5);
    return ev;
  }

  std::uint32_t cu;
  std::uint8_t unit;
  std::uint16_t cores;   ///< stream cores of the compute unit
  std::uint64_t latency; ///< pipeline depth of `unit`
  std::uint64_t active;  ///< lanes issued; kWavefrontIssue carries the count
  /// By lane: its common kinds (LaneEvents::kCommonKinds), and its action
  /// in bits 5-6.
  std::array<std::uint8_t, kMaxLanes> common;
  std::uint32_t rare_count = 0;
  std::array<RareLane, kMaxLanes> rare;
};

/// Receiver of probe events. Implementations (TelemetryCollector) are
/// attached per run and must not be shared across concurrently running
/// devices.
class ProbeSink {
 public:
  virtual ~ProbeSink() = default;
  virtual void on_event(const ProbeEvent& event) = 0;
  /// One wavefront op's events. The default expands the batch into the
  /// on_event() calls of the per-event path, in the same order.
  virtual void on_wavefront_op(const WavefrontOpBatch& batch) {
    on_event(ProbeEvent{ProbeEvent::Kind::kWavefrontIssue, batch.unit, 0, 0,
                        batch.cu,
                        static_cast<std::uint64_t>(
                            std::popcount(batch.active))});
    for (std::uint64_t m = batch.active; m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      emit_lane_events(
          *this, batch.lane_events(lane),
          ProbeEvent{ProbeEvent::Kind::kOpRetired, batch.unit, 0,
                     static_cast<std::uint16_t>(lane % batch.cores), batch.cu,
                     0},
          batch.latency);
    }
  }
};

inline void emit_lane_events(ProbeSink& sink, const LaneEvents& events,
                             ProbeEvent lane, std::uint64_t latency) {
  std::size_t value = 0;
  std::uint64_t replay_cycles = 0;
  for (const ProbeEvent::Kind kind : kLaneEmissionOrder) {
    if (!events.has(kind)) continue;
    ProbeEvent e = lane;
    e.kind = kind;
    e.aux = 0;
    e.value = 0;
    if ((LaneEvents::kValuedKinds & kind_bit(kind)) != 0) {
      e.value = events.values[value++];
    }
    if (kind == ProbeEvent::Kind::kEcuReplay) replay_cycles = e.value;
    if (kind == ProbeEvent::Kind::kSpatialReuse) e.value = latency;
    if (kind == ProbeEvent::Kind::kOpRetired) {
      e.value = latency + replay_cycles;
      e.aux = events.action;
    }
    sink.on_event(e);
  }
}

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

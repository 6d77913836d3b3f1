// TelemetryCollector: the standard ProbeSink of the simulator.
//
// One collector is attached to one GpuDevice for one run (Simulation::run
// creates it when the RunSpec asks for metrics or a timeline). It folds the
// probe-event stream into a MetricRegistry — counters for every hot-path
// event class, per-FPU-type breakdowns, and distribution histograms for
// the quantities the paper reports as averages only (per-stream-core
// hit-rate spread, replay-burst lengths, per-op latency, wavefront
// occupancy) — and, optionally, into a per-run event Timeline.
//
// Two entry points fold into the same state. A compute unit hands over a
// whole wavefront op as one WavefrontOpBatch (on_wavefront_op): its lanes
// are folded core by core, each lane one table-indexed add of its common
// kinds (hit, miss, write, spatial reuse, retire by action), and only the
// lanes that emitted a rare kind (EDS error, ECU replay, masked error, a
// fault-injection kind) are walked event by event. Every other emitter
// sends single events (on_event). A batch leaves exactly the snapshot,
// timeline and drop count its per-event expansion would, down to each
// instant's tick: lane i of an op starts at the op's start tick plus the
// number of active lanes before it (tests/telemetry/collector_diff_test).
//
// Cost: about 1 ns per batched lane and a few ns per single event, cheap
// enough to leave on. No instrument is looked up by name per event.
// Counters are plain uint64 counts inside the collector (fixed names by
// slot, fpu.<UNIT>.* by the event's unit byte, memo.action.* by its aux
// byte), published to the registry by finish(). Histograms are Histogram*
// handles, resolved through the registry the first time their event fires.
// Either way the snapshot lists only the instruments that fired, the shape
// golden files and campaign merges rely on. Per-core state lives in vectors
// indexed by compute unit, then stream core, grown on demand. Timeline
// events are flat values (timeline.hpp), so recording one does not
// allocate.
//
// Not thread-safe: the simulator executes one run on one thread, and the
// campaign engine gives every job its own collector, merging the
// resulting snapshots deterministically afterwards.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "fpu/opcode.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo::telemetry {

struct CollectorConfig {
  /// Record a per-run event timeline (memory-capped; see Timeline).
  bool timeline = false;
  std::size_t timeline_max_events = Timeline::kDefaultMaxEvents;
};

/// Records one campaign-supervision event ("worker_spawn", "worker_crash",
/// "worker_respawn", "job_redispatch", "job_timeout_kill") on a supervisor
/// timeline (docs/RESILIENCE.md). Lives here so timeline event naming stays
/// inside the telemetry layer. `seq` is the supervisor's own monotonic
/// event sequence — supervision timestamps are ordinal, never wall-clock,
/// so a supervision trace is as deterministic as the campaign that
/// produced it (wall-dependent *occurrence* of crashes aside). `worker` is
/// the worker slot, rendered as the trace's pid. `name` and the arg keys
/// must have static storage (timeline.hpp).
void record_supervision_event(Timeline& timeline, std::string_view name,
                              std::uint32_t worker, std::uint64_t seq,
                              const TimelineArgs& args);

class TelemetryCollector final : public ProbeSink {
 public:
  explicit TelemetryCollector(CollectorConfig config = {});

  void on_event(const ProbeEvent& event) override;
  /// Folds a whole wavefront op into exactly the state its per-event
  /// expansion would leave: per-op array adds, one latency-histogram
  /// record(value, count), and per-lane work only for the per-core state
  /// and the rare kinds.
  void on_wavefront_op(const WavefrontOpBatch& batch) override;

  /// The registry backing this collector; callers may add their own
  /// instruments (Simulation::run sets the run.* configuration gauges).
  /// The collector's own counters reach it at finish().
  [[nodiscard]] MetricRegistry& registry() noexcept { return registry_; }

  /// Flushes derived per-core state (open replay bursts, hit-rate spread,
  /// pending timeline spans) and returns the final snapshot. Call exactly
  /// once, after the run completes.
  [[nodiscard]] MetricsSnapshot finish();

  /// The recorded timeline (null unless configured). Valid after finish().
  [[nodiscard]] std::shared_ptr<const Timeline> take_timeline() noexcept {
    return std::move(timeline_);
  }

 private:
  /// Counters with fixed names (kCounterNames in collector.cpp).
  enum CounterSlot : std::uint8_t {
    kWavefrontIssues,
    kLutHits,
    kLutMisses,
    kLutWrites,
    kEdsErrors,
    kMaskedErrors,
    kEcuReplays,
    kEcuReplayCycles,
    kSpatialReuses,
    kLanesExecuted,
    kSeuFlips,
    kParityInvalidations,
    kEdsFalseNegatives,
    kEdsFalsePositives,
    kWatchdogTrips,
    kSdcCommittedOps,
    kNumCounterSlots,
  };
  /// Histograms (kHistograms in collector.cpp).
  enum HistogramSlot : std::uint8_t {
    kActiveLanes,
    kOpLatency,
    kReplayBurst,
    kHitRatePermille,
    kNumHistogramSlots,
  };
  /// fpu.<UNIT>.{hits,misses,ops}.
  enum UnitSlot : std::uint8_t {
    kUnitHits,
    kUnitMisses,
    kUnitOps,
    kNumUnitSlots,
  };
  /// Every FpuType, plus one slot shared by out-of-range unit bytes (which
  /// fpu_type_name() names "?").
  static constexpr std::size_t kUnitIndices = kNumFpuTypes + 1;
  /// The four MemoActions, plus one slot shared by out-of-range aux bytes
  /// ("memo.action.unknown").
  static constexpr std::size_t kActionIndices = 5;
  static std::size_t unit_index(std::uint8_t unit) {
    return std::min<std::size_t>(unit, kNumFpuTypes);
  }
  static std::size_t action_index(std::uint8_t aux) {
    return std::min<std::size_t>(aux, kActionIndices - 1);
  }

  struct CoreState {
    std::uint64_t lut_lookups = 0;
    std::uint64_t lut_hits = 0;
    std::uint64_t replay_burst = 0;  ///< consecutive ops that replayed
    bool replay_in_op = false;       ///< current op triggered the ECU
  };

  /// One in-flight static vector instruction on one compute unit
  /// (timeline aggregation only).
  struct PendingOp {
    bool seen = false; ///< some event touched this CU (it gets a name)
    bool active = false;
    std::uint64_t start_tick = 0;
    std::uint8_t unit = 0;
    std::uint64_t lanes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t errors = 0;
    std::uint64_t replays = 0;
    std::uint64_t cum_hits = 0;   ///< per-CU cumulative, for "C" series
    std::uint64_t cum_misses = 0;
  };

  /// Adds an event-carried value; the counter is published even when the
  /// values summed to 0, as it fired.
  void add(CounterSlot slot, std::uint64_t value) {
    counts_[slot] += value;
    fired_ |= 1u << slot;
  }
  Histogram& histogram(HistogramSlot slot) {
    Histogram* h = histograms_[slot];
    return h != nullptr ? *h : resolve_histogram(slot);
  }
  CoreState& core_state(std::uint32_t cu, std::uint16_t core) {
    if (cu < cores_.size() && core < cores_[cu].size()) {
      return cores_[cu][core];
    }
    return grow_core_state(cu, core);
  }

  Histogram& resolve_histogram(HistogramSlot slot);
  CoreState& grow_core_state(std::uint32_t cu, std::uint16_t core);
  PendingOp& pending(std::uint32_t cu);
  void record_instant(const ProbeEvent& e, std::uint64_t ts,
                      std::string_view name, TimelineKey category,
                      TimelineKey arg_key);
  /// kWavefrontIssue: opens the CU's next timeline span.
  void issue(std::uint32_t cu, std::uint8_t unit, std::uint64_t lanes);
  /// kOpRetired's per-core part: extends or closes the replay burst.
  void retire_on_core(CoreState& core);
  /// The rare kinds (WavefrontOpBatch::kRareKinds) of one event, whose
  /// instant is stamped `ts`.
  void on_rare(const ProbeEvent& e, std::uint64_t ts);
  void flush_op(std::uint32_t cu, PendingOp& op);
  void publish_counters();

  MetricRegistry registry_;
  std::shared_ptr<Timeline> timeline_;
  // This run's counter values, published to registry_ by finish(). A
  // count kept here costs one add to a line the hot path already has in
  // cache; a registry-owned Counter* would cost a load and a separate heap
  // line per update.
  std::array<std::uint64_t, kNumCounterSlots> counts_{};
  std::uint32_t fired_ = 0; ///< CounterSlot bits set by add()
  std::array<std::array<std::uint64_t, kUnitIndices>, kNumUnitSlots>
      unit_counts_{};
  std::array<std::uint64_t, kActionIndices> action_counts_{};
  /// Null until the histogram's first sample; registry_ owns the targets.
  std::array<Histogram*, kNumHistogramSlots> histograms_{};
  std::vector<std::vector<CoreState>> cores_; ///< [cu][core]
  std::vector<PendingOp> pending_;            ///< [cu], timeline only
  std::uint64_t tick_ = 0; ///< committed dynamic instructions (sim clock)
  bool finished_ = false;
};

} // namespace tmemo::telemetry

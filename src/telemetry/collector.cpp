#include "telemetry/collector.hpp"

#include <string>

#include "memo/module.hpp"

namespace tmemo::telemetry {

namespace {

constexpr std::array<std::string_view, 16> kCounterNames = {
    "sim.wavefront_issues",
    "memo.lut.hits",
    "memo.lut.misses",
    "memo.lut.writes",
    "timing.eds_errors",
    "timing.masked_errors",
    "timing.ecu.replays",
    "timing.ecu.replay_cycles",
    "memo.spatial.reuses",
    "sim.lanes_executed",
    "inject.lut.seu_flips",
    "inject.lut.parity_invalidations",
    "inject.eds.false_negatives",
    "inject.eds.false_positives",
    "inject.watchdog.trips",
    "inject.sdc.committed_ops",
};

struct HistogramDef {
  std::string_view name;
  HistogramSpec spec;
};

const std::array<HistogramDef, 4> kHistograms = {{
    // 65 buckets so a full 64-lane wavefront (the common case) gets its
    // own bucket [64,65) instead of landing in overflow.
    {"sim.wavefront_active_lanes", HistogramSpec::linear(0, 65, 65)},
    {"fpu.op_latency_cycles", HistogramSpec::log2()},
    {"memo.replay_burst_len", HistogramSpec::log2()},
    {"core.hit_rate_permille", HistogramSpec::linear(0, 1000, 50)},
}};

constexpr std::array<std::string_view, 3> kUnitSuffixes = {
    ".hits", ".misses", ".ops"};

std::string_view unit_name(std::uint8_t unit) {
  return fpu_type_name(static_cast<FpuType>(unit));
}

} // namespace

void record_supervision_event(Timeline& timeline, std::string_view name,
                              std::uint32_t worker, std::uint64_t seq,
                              const TimelineArgs& args) {
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kInstant;
  ev.name = name;
  ev.category = "campaign";
  ev.pid = worker;
  ev.tid = 0;
  ev.ts = seq;
  ev.args = args;
  timeline.instant(ev);
}

TelemetryCollector::TelemetryCollector(CollectorConfig config) {
  static_assert(kCounterNames.size() == kNumCounterSlots);
  static_assert(kNumCounterSlots <= 32, "fired_ holds one bit per slot");
  static_assert(kHistograms.size() == kNumHistogramSlots);
  static_assert(kUnitSuffixes.size() == kNumUnitSlots);
  static_assert(static_cast<std::size_t>(MemoAction::kReuseMaskError) + 2 ==
                kActionIndices);
  if (config.timeline) {
    timeline_ = std::make_shared<Timeline>(config.timeline_max_events);
  }
}

Histogram& TelemetryCollector::resolve_histogram(HistogramSlot slot) {
  histograms_[slot] =
      &registry_.histogram(kHistograms[slot].name, kHistograms[slot].spec);
  return *histograms_[slot];
}

TelemetryCollector::CoreState& TelemetryCollector::grow_core_state(
    const ProbeEvent& e) {
  if (e.cu >= cores_.size()) cores_.resize(e.cu + std::size_t{1});
  std::vector<CoreState>& cu = cores_[e.cu];
  if (e.core >= cu.size()) cu.resize(e.core + std::size_t{1});
  return cu[e.core];
}

TelemetryCollector::PendingOp& TelemetryCollector::pending(std::uint32_t cu) {
  if (cu >= pending_.size()) [[unlikely]] pending_.resize(cu + std::size_t{1});
  PendingOp& op = pending_[cu];
  op.seen = true;
  return op;
}

void TelemetryCollector::record_instant(const ProbeEvent& e,
                                        std::string_view name,
                                        std::string_view category,
                                        std::string_view arg_key) {
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kInstant;
  ev.name = name;
  ev.category = category;
  ev.pid = e.cu;
  ev.tid = e.core;
  ev.ts = tick_;
  if (!arg_key.empty()) ev.args.emplace_back(arg_key, e.value);
  timeline_->instant(ev);
}

void TelemetryCollector::on_event(const ProbeEvent& e) {
  switch (e.kind) {
    case ProbeEvent::Kind::kWavefrontIssue: {
      ++counts_[kWavefrontIssues];
      histogram(kActiveLanes).record(e.value);
      if (timeline_) {
        PendingOp& op = pending(e.cu);
        flush_op(e.cu, op);
        op.active = true;
        op.start_tick = tick_;
        op.unit = e.unit;
        op.lanes = e.value;
      }
      break;
    }
    case ProbeEvent::Kind::kLutHit:
    case ProbeEvent::Kind::kLutMiss: {
      const bool hit = e.kind == ProbeEvent::Kind::kLutHit;
      ++counts_[hit ? kLutHits : kLutMisses];
      ++unit_counts_[hit ? kUnitHits : kUnitMisses][unit_index(e.unit)];
      CoreState& core = core_state(e);
      ++core.lut_lookups;
      core.lut_hits += hit ? 1 : 0;
      if (timeline_) {
        PendingOp& op = pending(e.cu);
        ++(hit ? op.hits : op.misses);
        ++(hit ? op.cum_hits : op.cum_misses);
      }
      break;
    }
    case ProbeEvent::Kind::kLutWrite:
      ++counts_[kLutWrites];
      break;
    case ProbeEvent::Kind::kEdsError:
      ++counts_[kEdsErrors];
      if (timeline_) {
        ++pending(e.cu).errors;
        record_instant(e, "eds_error", "timing", {});
      }
      break;
    case ProbeEvent::Kind::kErrorMasked:
      ++counts_[kMaskedErrors];
      break;
    case ProbeEvent::Kind::kEcuReplay:
      ++counts_[kEcuReplays];
      add(kEcuReplayCycles, e.value);
      core_state(e).replay_in_op = true;
      if (timeline_) {
        ++pending(e.cu).replays;
        record_instant(e, "ecu_replay", "timing", "cycles");
      }
      break;
    case ProbeEvent::Kind::kSpatialReuse:
      ++counts_[kSpatialReuses];
      ++counts_[kLanesExecuted];
      ++tick_;
      break;
    case ProbeEvent::Kind::kOpRetired: {
      ++counts_[kLanesExecuted];
      ++unit_counts_[kUnitOps][unit_index(e.unit)];
      ++action_counts_[action_index(e.aux)];
      histogram(kOpLatency).record(e.value);
      CoreState& core = core_state(e);
      if (core.replay_in_op) {
        core.replay_in_op = false;
        ++core.replay_burst;
      } else if (core.replay_burst > 0) {
        histogram(kReplayBurst).record(core.replay_burst);
        core.replay_burst = 0;
      }
      ++tick_;
      break;
    }
    case ProbeEvent::Kind::kLutSeuFlip:
      add(kSeuFlips, e.value);
      break;
    case ProbeEvent::Kind::kLutParityDrop:
      add(kParityInvalidations, e.value);
      break;
    case ProbeEvent::Kind::kEdsFalseNegative:
      ++counts_[kEdsFalseNegatives];
      break;
    case ProbeEvent::Kind::kEdsFalsePositive:
      ++counts_[kEdsFalsePositives];
      break;
    case ProbeEvent::Kind::kWatchdogTrip:
      ++counts_[kWatchdogTrips];
      if (timeline_) {
        record_instant(e, "watchdog_trip", "inject", "recovery_cycles");
      }
      break;
    case ProbeEvent::Kind::kSdcCommit:
      ++counts_[kSdcCommittedOps];
      break;
  }
}

void TelemetryCollector::flush_op(std::uint32_t cu, PendingOp& op) {
  if (!op.active || !timeline_) return;
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kComplete;
  ev.name = unit_name(op.unit);
  ev.category = "issue";
  ev.pid = cu;
  ev.tid = 0;
  ev.ts = op.start_tick;
  ev.dur = tick_ > op.start_tick ? tick_ - op.start_tick : 1;
  ev.args.emplace_back("lanes", op.lanes);
  ev.args.emplace_back("lut_hits", op.hits);
  ev.args.emplace_back("lut_misses", op.misses);
  ev.args.emplace_back("eds_errors", op.errors);
  ev.args.emplace_back("ecu_replays", op.replays);
  timeline_->complete(ev);

  TimelineEvent ctr;
  ctr.phase = TimelineEvent::Phase::kCounter;
  ctr.name = "lut";
  ctr.category = "memo";
  ctr.pid = cu;
  ctr.tid = 0;
  ctr.ts = tick_;
  ctr.args.emplace_back("hits", op.cum_hits);
  ctr.args.emplace_back("misses", op.cum_misses);
  timeline_->counter(ctr);

  op.active = false;
  op.lanes = op.hits = op.misses = op.errors = op.replays = 0;
}

void TelemetryCollector::publish_counters() {
  for (std::size_t i = 0; i < kNumCounterSlots; ++i) {
    if (counts_[i] != 0 || ((fired_ >> i) & 1u) != 0) {
      registry_.counter(kCounterNames[i]).add(counts_[i]);
    }
  }
  for (std::size_t slot = 0; slot < kNumUnitSlots; ++slot) {
    for (std::size_t unit = 0; unit < kUnitIndices; ++unit) {
      if (unit_counts_[slot][unit] == 0) continue;
      std::string name = "fpu.";
      name += unit_name(static_cast<std::uint8_t>(unit));
      name += kUnitSuffixes[slot];
      registry_.counter(name).add(unit_counts_[slot][unit]);
    }
  }
  for (std::size_t aux = 0; aux < kActionIndices; ++aux) {
    if (action_counts_[aux] == 0) continue;
    registry_
        .counter(memo_action_metric_name(static_cast<MemoAction>(aux)))
        .add(action_counts_[aux]);
  }
}

MetricsSnapshot TelemetryCollector::finish() {
  if (!finished_) {
    finished_ = true;
    publish_counters();
    // Flush per-core derived state in (cu, core) order. A core no event
    // touched is still all zeros and records nothing.
    for (std::vector<CoreState>& cu : cores_) {
      for (CoreState& core : cu) {
        if (core.replay_in_op) {
          core.replay_in_op = false;
          ++core.replay_burst;
        }
        if (core.replay_burst > 0) {
          histogram(kReplayBurst).record(core.replay_burst);
          core.replay_burst = 0;
        }
        if (core.lut_lookups > 0) {
          histogram(kHitRatePermille)
              .record(core.lut_hits * 1000 / core.lut_lookups);
        }
      }
    }
    if (timeline_) {
      for (std::uint32_t cu = 0; cu < pending_.size(); ++cu) {
        if (!pending_[cu].seen) continue;
        flush_op(cu, pending_[cu]);
        timeline_->set_process_name(cu,
                                    "compute_unit " + std::to_string(cu));
      }
      registry_.gauge("sim.timeline_dropped_events")
          .set(timeline_->dropped());
    }
  }
  return registry_.snapshot();
}

} // namespace tmemo::telemetry

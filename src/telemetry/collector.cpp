#include "telemetry/collector.hpp"

#include <bit>
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

// A lane's contribution to its op's counts, by its WavefrontOpBatch::common
// byte (common kinds in the low five bits, action in the next two): one 7-bit
// field per common kind and one per action of a retired lane. A field holds
// up to 127, and an op has at most 64 lanes.
enum CountField : unsigned {
  kHitField,
  kMissField,
  kWriteField,
  kSpatialField,
  kRetireField,
  kActionField, ///< + MemoAction
};
constexpr unsigned kFieldBits = 7;
constexpr std::array<std::uint64_t, 128> kLaneCounts = [] {
  std::array<std::uint64_t, 128> counts{};
  for (std::uint64_t index = 0; index < counts.size(); ++index) {
    for (unsigned bit = 0; bit < 5; ++bit) {
      counts[index] |= ((index >> bit) & 1u) << (kFieldBits * bit);
    }
    const std::uint64_t retired = (index >> kRetireField) & 1u;
    counts[index] |= retired << (kFieldBits * (kActionField + (index >> 5)));
  }
  return counts;
}();
constexpr std::uint64_t field(std::uint64_t counts, unsigned f) {
  return (counts >> (kFieldBits * f)) & ((1u << kFieldBits) - 1);
}

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
    std::uint32_t cu, std::uint16_t core) {
  if (cu >= cores_.size()) cores_.resize(cu + std::size_t{1});
  std::vector<CoreState>& row = cores_[cu];
  if (core >= row.size()) row.resize(core + std::size_t{1});
  return row[core];
}

TelemetryCollector::PendingOp& TelemetryCollector::pending(std::uint32_t cu) {
  if (cu >= pending_.size()) [[unlikely]] pending_.resize(cu + std::size_t{1});
  PendingOp& op = pending_[cu];
  op.seen = true;
  return op;
}

void TelemetryCollector::record_instant(const ProbeEvent& e, std::uint64_t ts,
                                        std::string_view name,
                                        TimelineKey category,
                                        TimelineKey arg_key) {
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kInstant;
  ev.name = name;
  ev.category = category;
  ev.pid = e.cu;
  ev.tid = e.core;
  ev.ts = ts;
  if (!arg_key.empty()) ev.args.emplace_back(arg_key, e.value);
  timeline_->instant(ev);
}

void TelemetryCollector::issue(std::uint32_t cu, std::uint8_t unit,
                               std::uint64_t lanes) {
  ++counts_[kWavefrontIssues];
  histogram(kActiveLanes).record(lanes);
  if (timeline_) {
    PendingOp& op = pending(cu);
    flush_op(cu, op);
    op.active = true;
    op.start_tick = tick_;
    op.unit = unit;
    op.lanes = lanes;
  }
}

void TelemetryCollector::retire_on_core(CoreState& core) {
  if (core.replay_in_op) {
    core.replay_in_op = false;
    ++core.replay_burst;
  } else if (core.replay_burst > 0) {
    histogram(kReplayBurst).record(core.replay_burst);
    core.replay_burst = 0;
  }
}

void TelemetryCollector::on_rare(const ProbeEvent& e, std::uint64_t ts) {
  switch (e.kind) {
    case ProbeEvent::Kind::kEdsError:
      ++counts_[kEdsErrors];
      if (timeline_) {
        ++pending(e.cu).errors;
        record_instant(e, ts, "eds_error", "timing", {});
      }
      break;
    case ProbeEvent::Kind::kErrorMasked:
      ++counts_[kMaskedErrors];
      break;
    case ProbeEvent::Kind::kEcuReplay:
      ++counts_[kEcuReplays];
      add(kEcuReplayCycles, e.value);
      if (timeline_) {
        ++pending(e.cu).replays;
        record_instant(e, ts, "ecu_replay", "timing", "cycles");
      }
      break;
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
        record_instant(e, ts, "watchdog_trip", "inject", "recovery_cycles");
      }
      break;
    case ProbeEvent::Kind::kSdcCommit:
      ++counts_[kSdcCommittedOps];
      break;
    default: // the common kinds; on_event folds them
      break;
  }
}

void TelemetryCollector::on_event(const ProbeEvent& e) {
  switch (e.kind) {
    case ProbeEvent::Kind::kWavefrontIssue:
      issue(e.cu, e.unit, e.value);
      break;
    case ProbeEvent::Kind::kLutHit:
    case ProbeEvent::Kind::kLutMiss: {
      const bool hit = e.kind == ProbeEvent::Kind::kLutHit;
      ++counts_[hit ? kLutHits : kLutMisses];
      ++unit_counts_[hit ? kUnitHits : kUnitMisses][unit_index(e.unit)];
      CoreState& core = core_state(e.cu, e.core);
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
    case ProbeEvent::Kind::kSpatialReuse:
      ++counts_[kSpatialReuses];
      ++counts_[kLanesExecuted];
      ++tick_;
      break;
    case ProbeEvent::Kind::kOpRetired:
      ++counts_[kLanesExecuted];
      ++unit_counts_[kUnitOps][unit_index(e.unit)];
      ++action_counts_[action_index(e.aux)];
      histogram(kOpLatency).record(e.value);
      retire_on_core(core_state(e.cu, e.core));
      ++tick_;
      break;
    case ProbeEvent::Kind::kEcuReplay:
      core_state(e.cu, e.core).replay_in_op = true;
      on_rare(e, tick_);
      break;
    default:
      on_rare(e, tick_);
      break;
  }
}

void TelemetryCollector::on_wavefront_op(const WavefrontOpBatch& b) {
  using Kind = ProbeEvent::Kind;
  const auto lanes_below = [&b](unsigned lane) -> std::uint64_t {
    return static_cast<std::uint64_t>(
        std::popcount(b.active & ((std::uint64_t{1} << lane) - 1)));
  };
  issue(b.cu, b.unit, static_cast<std::uint64_t>(std::popcount(b.active)));
  // Every core of the unit, so the loop below indexes the row directly (a
  // core no event touches stays all zeros and records nothing).
  if (b.cu >= cores_.size() || cores_[b.cu].size() < b.cores) {
    (void)grow_core_state(b.cu, static_cast<std::uint16_t>(b.cores - 1));
  }
  CoreState* const row = cores_[b.cu].data();

  // Core by core (core c runs lanes c, c + cores, ...), each core's lanes
  // in issue order: the counts, the core's lookups, and its replay bursts.
  std::uint64_t core0_lanes = 0;
  for (std::size_t lane = 0; lane < WavefrontOpBatch::kMaxLanes;
       lane += b.cores) {
    core0_lanes |= std::uint64_t{1} << lane;
  }
  std::uint64_t replay_lanes = 0;
  for (std::uint32_t r = 0; r < b.rare_count; ++r) {
    if (b.rare[r].events.has(Kind::kEcuReplay)) {
      replay_lanes |= std::uint64_t{1} << b.rare[r].lane;
    }
  }
  std::uint64_t counts = 0; ///< CountField fields, summed over lanes
  for (std::uint16_t c = 0; c < b.cores; ++c) {
    const std::uint64_t lanes = b.active & (core0_lanes << c);
    if (lanes == 0) continue;
    CoreState& core = row[c];
    std::uint64_t core_counts = 0;
    const auto count_lane = [&](unsigned lane) {
      core_counts += kLaneCounts[b.common[lane]];
    };
    if ((replay_lanes & lanes) == 0 && !core.replay_in_op) {
      // No replay starts or extends a burst here: the core's first retire
      // closes an open one.
      for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        count_lane(static_cast<unsigned>(std::countr_zero(m)));
      }
      if (core.replay_burst != 0 && field(core_counts, kRetireField) != 0) {
        retire_on_core(core);
      }
    } else {
      for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        const auto lane = static_cast<unsigned>(std::countr_zero(m));
        count_lane(lane);
        if (((replay_lanes >> lane) & 1u) != 0) core.replay_in_op = true;
        if ((b.common[lane] & kind_bit(Kind::kOpRetired)) != 0) {
          retire_on_core(core);
        }
      }
    }
    core.lut_lookups +=
        field(core_counts, kHitField) + field(core_counts, kMissField);
    core.lut_hits += field(core_counts, kHitField);
    counts += core_counts;
  }

  // The rare lanes, in issue order: their kinds in emission order, each
  // instant stamped with the tick its lane started at (one tick per earlier
  // lane).
  std::uint64_t replay_retired = 0;
  for (std::uint32_t r = 0; r < b.rare_count; ++r) {
    const WavefrontOpBatch::RareLane& lane = b.rare[r];
    const std::uint64_t ts = tick_ + lanes_below(lane.lane);
    std::size_t value = 0;
    for (const Kind kind : kLaneEmissionOrder) {
      if ((lane.events.kinds & LaneEvents::kRareKinds & kind_bit(kind)) == 0) {
        continue;
      }
      ProbeEvent e{kind, b.unit, 0,
                   static_cast<std::uint16_t>(lane.lane % b.cores), b.cu, 0};
      if ((LaneEvents::kValuedKinds & kind_bit(kind)) != 0) {
        e.value = lane.events.values[value++];
      }
      if (kind == Kind::kEcuReplay && lane.events.has(Kind::kOpRetired)) {
        ++replay_retired;
        histogram(kOpLatency).record(b.latency + e.value);
      }
      on_rare(e, ts);
    }
  }

  const std::uint64_t hits = field(counts, kHitField);
  const std::uint64_t misses = field(counts, kMissField);
  const std::uint64_t writes = field(counts, kWriteField);
  const std::uint64_t spatial = field(counts, kSpatialField);
  const std::uint64_t retired = field(counts, kRetireField);
  counts_[kLutHits] += hits;
  counts_[kLutMisses] += misses;
  counts_[kLutWrites] += writes;
  counts_[kSpatialReuses] += spatial;
  counts_[kLanesExecuted] += retired + spatial;
  const std::size_t unit = unit_index(b.unit);
  unit_counts_[kUnitHits][unit] += hits;
  unit_counts_[kUnitMisses][unit] += misses;
  unit_counts_[kUnitOps][unit] += retired;
  for (unsigned a = 0; a < 4; ++a) {
    action_counts_[a] += field(counts, kActionField + a);
  }
  if (retired > replay_retired) {
    histogram(kOpLatency).record(b.latency, retired - replay_retired);
  }
  if (timeline_) {
    PendingOp& op = pending_[b.cu];
    op.hits += hits;
    op.misses += misses;
    op.cum_hits += hits;
    op.cum_misses += misses;
  }
  tick_ += retired + spatial;
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

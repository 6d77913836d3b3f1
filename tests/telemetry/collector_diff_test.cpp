// Differential oracle for TelemetryCollector. ReferenceCollector is the
// direct, slow definition of the same fold: every instrument looked up by
// name on every event, per-core and per-CU state in std::maps. Both sinks
// see the same seeded random probe streams; their snapshots (names, order,
// values, histogram buckets), drop counts and Chrome traces must be
// identical, byte for byte. The batched cases feed the reference each
// wavefront op's per-event form and the collector the batch itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fpu/opcode.hpp"
#include "memo/module.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo::telemetry {
namespace {

// -- The reference fold -------------------------------------------------------

class ReferenceCollector final : public ProbeSink {
 public:
  explicit ReferenceCollector(CollectorConfig config = {}) {
    if (config.timeline) {
      timeline_ = std::make_shared<Timeline>(config.timeline_max_events);
    }
  }

  void on_event(const ProbeEvent& e) override {
    MetricRegistry& reg = registry_;
    switch (e.kind) {
      case ProbeEvent::Kind::kWavefrontIssue: {
        reg.counter("sim.wavefront_issues").add();
        reg.histogram("sim.wavefront_active_lanes",
                      HistogramSpec::linear(0, 65, 65))
            .record(e.value);
        if (timeline_) {
          PendingOp& op = pending_[e.cu];
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
        reg.counter(hit ? "memo.lut.hits" : "memo.lut.misses").add();
        reg.counter(unit_metric(e.unit, hit ? ".hits" : ".misses")).add();
        CoreState& core = core_state(e);
        ++core.lut_lookups;
        core.lut_hits += hit ? 1 : 0;
        if (timeline_) {
          PendingOp& op = pending_[e.cu];
          ++(hit ? op.hits : op.misses);
          ++(hit ? op.cum_hits : op.cum_misses);
        }
        break;
      }
      case ProbeEvent::Kind::kLutWrite:
        reg.counter("memo.lut.writes").add();
        break;
      case ProbeEvent::Kind::kEdsError:
        reg.counter("timing.eds_errors").add();
        if (timeline_) {
          ++pending_[e.cu].errors;
          instant(e, "eds_error", "timing", nullptr);
        }
        break;
      case ProbeEvent::Kind::kErrorMasked:
        reg.counter("timing.masked_errors").add();
        break;
      case ProbeEvent::Kind::kEcuReplay:
        reg.counter("timing.ecu.replays").add();
        reg.counter("timing.ecu.replay_cycles").add(e.value);
        core_state(e).replay_in_op = true;
        if (timeline_) {
          ++pending_[e.cu].replays;
          instant(e, "ecu_replay", "timing", "cycles");
        }
        break;
      case ProbeEvent::Kind::kSpatialReuse:
        reg.counter("memo.spatial.reuses").add();
        reg.counter("sim.lanes_executed").add();
        ++tick_;
        break;
      case ProbeEvent::Kind::kOpRetired: {
        reg.counter("sim.lanes_executed").add();
        reg.counter(unit_metric(e.unit, ".ops")).add();
        reg.counter(memo_action_metric_name(static_cast<MemoAction>(e.aux)))
            .add();
        reg.histogram("fpu.op_latency_cycles", HistogramSpec::log2())
            .record(e.value);
        CoreState& core = core_state(e);
        if (core.replay_in_op) {
          core.replay_in_op = false;
          ++core.replay_burst;
        } else if (core.replay_burst > 0) {
          reg.histogram("memo.replay_burst_len", HistogramSpec::log2())
              .record(core.replay_burst);
          core.replay_burst = 0;
        }
        ++tick_;
        break;
      }
      case ProbeEvent::Kind::kLutSeuFlip:
        reg.counter("inject.lut.seu_flips").add(e.value);
        break;
      case ProbeEvent::Kind::kLutParityDrop:
        reg.counter("inject.lut.parity_invalidations").add(e.value);
        break;
      case ProbeEvent::Kind::kEdsFalseNegative:
        reg.counter("inject.eds.false_negatives").add();
        break;
      case ProbeEvent::Kind::kEdsFalsePositive:
        reg.counter("inject.eds.false_positives").add();
        break;
      case ProbeEvent::Kind::kWatchdogTrip:
        reg.counter("inject.watchdog.trips").add();
        if (timeline_) {
          instant(e, "watchdog_trip", "inject", "recovery_cycles");
        }
        break;
      case ProbeEvent::Kind::kSdcCommit:
        reg.counter("inject.sdc.committed_ops").add();
        break;
    }
  }

  MetricsSnapshot finish() {
    for (auto& kv : cores_) {
      CoreState& core = kv.second;
      if (core.replay_in_op) {
        core.replay_in_op = false;
        ++core.replay_burst;
      }
      if (core.replay_burst > 0) {
        registry_.histogram("memo.replay_burst_len", HistogramSpec::log2())
            .record(core.replay_burst);
        core.replay_burst = 0;
      }
      if (core.lut_lookups > 0) {
        registry_
            .histogram("core.hit_rate_permille",
                       HistogramSpec::linear(0, 1000, 50))
            .record(core.lut_hits * 1000 / core.lut_lookups);
      }
    }
    if (timeline_) {
      for (auto& kv : pending_) {
        flush_op(kv.first, kv.second);
        timeline_->set_process_name(
            kv.first, "compute_unit " + std::to_string(kv.first));
      }
      registry_.gauge("sim.timeline_dropped_events")
          .set(timeline_->dropped());
    }
    return registry_.snapshot();
  }

  [[nodiscard]] std::shared_ptr<const Timeline> timeline() const {
    return timeline_;
  }

 private:
  struct CoreState {
    std::uint64_t lut_lookups = 0;
    std::uint64_t lut_hits = 0;
    std::uint64_t replay_burst = 0;
    bool replay_in_op = false;
  };
  struct PendingOp {
    bool active = false;
    std::uint64_t start_tick = 0;
    std::uint8_t unit = 0;
    std::uint64_t lanes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t errors = 0;
    std::uint64_t replays = 0;
    std::uint64_t cum_hits = 0;
    std::uint64_t cum_misses = 0;
  };

  static std::string unit_metric(std::uint8_t unit, const char* suffix) {
    std::string s = "fpu.";
    s += fpu_type_name(static_cast<FpuType>(unit));
    s += suffix;
    return s;
  }

  CoreState& core_state(const ProbeEvent& e) {
    return cores_[(static_cast<std::uint64_t>(e.cu) << 16) | e.core];
  }

  void instant(const ProbeEvent& e, const char* name, const char* category,
               const char* arg_key) {
    TimelineEvent ev;
    ev.phase = TimelineEvent::Phase::kInstant;
    ev.name = name;
    ev.category = category;
    ev.pid = e.cu;
    ev.tid = e.core;
    ev.ts = tick_;
    if (arg_key != nullptr) ev.args.emplace_back(arg_key, e.value);
    timeline_->instant(ev);
  }

  void flush_op(std::uint32_t cu, PendingOp& op) {
    if (!op.active || !timeline_) return;
    TimelineEvent ev;
    ev.phase = TimelineEvent::Phase::kComplete;
    ev.name = fpu_type_name(static_cast<FpuType>(op.unit));
    ev.category = "issue";
    ev.pid = cu;
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
    ctr.ts = tick_;
    ctr.args.emplace_back("hits", op.cum_hits);
    ctr.args.emplace_back("misses", op.cum_misses);
    timeline_->counter(ctr);

    op.active = false;
    op.lanes = op.hits = op.misses = op.errors = op.replays = 0;
  }

  MetricRegistry registry_;
  std::shared_ptr<Timeline> timeline_;
  std::map<std::uint64_t, CoreState> cores_;
  std::map<std::uint32_t, PendingOp> pending_;
  std::uint64_t tick_ = 0;
};

// -- Random probe streams -----------------------------------------------------

constexpr int kNumKinds = static_cast<int>(ProbeEvent::Kind::kSdcCommit) + 1;
constexpr int kNumActions = static_cast<int>(MemoAction::kReuseMaskError) + 1;

struct StreamShape {
  std::uint32_t compute_units = 20; ///< CUs drawn from, in shuffled order
  std::uint16_t cores = 16;
  std::uint8_t units = kNumFpuTypes;
  std::uint8_t actions = kNumActions;
  std::uint16_t kinds = (1u << kNumKinds) - 1; ///< bit k: Kind k may occur
  bool transactions = true; ///< mix in well-formed wavefronts
  bool hits = true;
};

/// One seeded stream mixing well-formed instruction transactions (issue,
/// lookup, error, replay/mask, retire on one core, so replay bursts form)
/// with single events of every kind on arbitrary (cu, core) pairs.
std::vector<ProbeEvent> random_stream(std::uint64_t seed, std::size_t length,
                                      const StreamShape& shape) {
  Xorshift128 rng(seed);
  // The CUs in play: a shuffled subset of 0..19, so first-touch order is
  // not index order and some indices in range are never touched.
  std::vector<std::uint32_t> cus(20);
  std::iota(cus.begin(), cus.end(), 0u);
  for (std::size_t i = cus.size() - 1; i > 0; --i) {
    std::swap(cus[i], cus[rng.next_below(i + 1)]);
  }
  cus.resize(shape.compute_units);
  const auto pick = [&rng](std::uint64_t bound) {
    return rng.next_below(bound);
  };
  const auto base = [&](ProbeEvent::Kind kind) {
    ProbeEvent e;
    e.kind = kind;
    e.unit = static_cast<std::uint8_t>(pick(shape.units));
    e.aux = static_cast<std::uint8_t>(pick(shape.actions));
    e.cu = cus[pick(cus.size())];
    e.core = static_cast<std::uint16_t>(pick(shape.cores));
    return e;
  };

  std::vector<ProbeEvent::Kind> kinds;
  for (int k = 0; k < kNumKinds; ++k) {
    if ((shape.kinds >> k) & 1u) kinds.push_back(ProbeEvent::Kind(k));
  }

  std::vector<ProbeEvent> out;
  while (out.size() < length) {
    if (!shape.transactions || pick(2) == 0) {
      ProbeEvent e = base(kinds[pick(kinds.size())]);
      if (!shape.hits && e.kind == ProbeEvent::Kind::kLutHit) {
        e.kind = ProbeEvent::Kind::kLutMiss;
      }
      switch (pick(4)) {
        case 0: e.value = rng.next_u64(); break;
        case 1: e.value = 0; break;
        default: e.value = pick(100); break;
      }
      out.push_back(e);
      continue;
    }
    // A wavefront: issue, then per lane one transaction on its core.
    ProbeEvent issue = base(ProbeEvent::Kind::kWavefrontIssue);
    issue.value = pick(70);
    out.push_back(issue);
    const std::uint64_t lanes = 1 + pick(6);
    for (std::uint64_t l = 0; l < lanes; ++l) {
      ProbeEvent op = issue;
      op.core = static_cast<std::uint16_t>(pick(shape.cores));
      const bool hit = shape.hits && pick(2) == 0;
      op.kind = hit ? ProbeEvent::Kind::kLutHit : ProbeEvent::Kind::kLutMiss;
      op.value = 0;
      out.push_back(op);
      const bool error = pick(3) == 0;
      if (error) {
        op.kind = ProbeEvent::Kind::kEdsError;
        out.push_back(op);
        op.kind = hit ? ProbeEvent::Kind::kErrorMasked
                      : ProbeEvent::Kind::kEcuReplay;
        op.value = hit ? 0 : 12;
        out.push_back(op);
      } else if (!hit) {
        op.kind = ProbeEvent::Kind::kLutWrite;
        out.push_back(op);
      }
      op.kind = ProbeEvent::Kind::kOpRetired;
      op.aux = static_cast<std::uint8_t>(pick(shape.actions));
      op.value = 1 + pick(40);
      out.push_back(op);
    }
  }
  return out;
}

// -- Comparison ---------------------------------------------------------------

void expect_same_snapshot(const MetricsSnapshot& want,
                          const MetricsSnapshot& got) {
  ASSERT_EQ(want.counters.size(), got.counters.size());
  for (std::size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(want.counters[i].name, got.counters[i].name);
    EXPECT_EQ(want.counters[i].value, got.counters[i].value)
        << want.counters[i].name;
  }
  ASSERT_EQ(want.gauges.size(), got.gauges.size());
  for (std::size_t i = 0; i < want.gauges.size(); ++i) {
    EXPECT_EQ(want.gauges[i].name, got.gauges[i].name);
    EXPECT_EQ(want.gauges[i].value, got.gauges[i].value)
        << want.gauges[i].name;
  }
  ASSERT_EQ(want.histograms.size(), got.histograms.size());
  for (std::size_t i = 0; i < want.histograms.size(); ++i) {
    const auto& w = want.histograms[i];
    const auto& g = got.histograms[i];
    EXPECT_EQ(w.name, g.name);
    EXPECT_TRUE(w.spec == g.spec) << w.name;
    EXPECT_EQ(w.buckets, g.buckets) << w.name;
    EXPECT_EQ(w.count, g.count) << w.name;
    EXPECT_EQ(w.sum, g.sum) << w.name;
    EXPECT_EQ(w.min, g.min) << w.name;
    EXPECT_EQ(w.max, g.max) << w.name;
  }
}

std::string trace_of(const Timeline& tl) {
  std::ostringstream os;
  write_chrome_trace(tl, os);
  return os.str();
}

/// Runs `events` through both sinks and requires identical output.
void check_equivalent(const std::vector<ProbeEvent>& events,
                      const CollectorConfig& config) {
  ReferenceCollector ref(config);
  TelemetryCollector col(config);
  for (const ProbeEvent& e : events) {
    ref.on_event(e);
    col.on_event(e);
  }
  const MetricsSnapshot want = ref.finish();
  const MetricsSnapshot got = col.finish();
  expect_same_snapshot(want, got);

  const std::shared_ptr<const Timeline> want_tl = ref.timeline();
  const std::shared_ptr<const Timeline> got_tl = col.take_timeline();
  ASSERT_EQ(want_tl == nullptr, got_tl == nullptr);
  if (want_tl == nullptr) return;
  EXPECT_EQ(want_tl->dropped(), got_tl->dropped());
  EXPECT_EQ(want_tl->events().size(), got_tl->events().size());
  EXPECT_EQ(trace_of(*want_tl), trace_of(*got_tl));
}

struct Mode {
  const char* label;
  bool timeline;
  std::size_t max_events;
};

constexpr std::array<Mode, 3> kModes = {{
    {"metrics only", false, Timeline::kDefaultMaxEvents},
    {"with timeline", true, Timeline::kDefaultMaxEvents},
    {"timeline capped at 2 events", true, 2},
}};

TEST(CollectorDiff, RandomStreamsMatchTheStringKeyedFold) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xorshift128 shape_rng(seed * 7919);
    StreamShape shape;
    shape.compute_units =
        static_cast<std::uint32_t>(1 + shape_rng.next_below(20));
    shape.cores = static_cast<std::uint16_t>(1 + shape_rng.next_below(16));
    if (seed % 2 == 0) {
      // A sparse stream: a subset of kinds, units and actions, so some
      // instruments never fire and must stay out of the snapshot.
      shape.units = static_cast<std::uint8_t>(
          1 + shape_rng.next_below(kNumFpuTypes));
      shape.actions =
          static_cast<std::uint8_t>(1 + shape_rng.next_below(kNumActions));
      shape.kinds = static_cast<std::uint16_t>(
          1 + shape_rng.next_below((1u << kNumKinds) - 1));
      shape.transactions = false;
    }
    const std::vector<ProbeEvent> events = random_stream(seed, 1500, shape);
    for (const Mode& mode : kModes) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                      << mode.label);
      CollectorConfig config;
      config.timeline = mode.timeline;
      config.timeline_max_events = mode.max_events;
      check_equivalent(events, config);
    }
  }
}

TEST(CollectorDiff, OutOfRangeUnitAndActionBytesMatch) {
  // Bytes past the enums name "fpu.?.*" and "memo.action.unknown"; all of
  // them share one instrument each, as they share one name.
  StreamShape shape;
  shape.units = 255;
  shape.actions = 255;
  const std::vector<ProbeEvent> events = random_stream(99, 3000, shape);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.label);
    CollectorConfig config;
    config.timeline = mode.timeline;
    config.timeline_max_events = mode.max_events;
    check_equivalent(events, config);
  }
}

TEST(CollectorDiff, CounterThatFiredWithZeroValueIsListed) {
  // The value-carrying kinds add their payload; a payload of 0 still means
  // the instrument fired.
  const std::vector<ProbeEvent> events = {
      ProbeEvent{ProbeEvent::Kind::kLutSeuFlip, 0, 0, 0, 0, 0},
      ProbeEvent{ProbeEvent::Kind::kLutParityDrop, 0, 0, 0, 0, 0},
      ProbeEvent{ProbeEvent::Kind::kEcuReplay, 0, 0, 0, 0, 0},
  };
  check_equivalent(events, {});

  TelemetryCollector col;
  for (const ProbeEvent& e : events) col.on_event(e);
  const MetricsSnapshot s = col.finish();
  for (const char* name :
       {"inject.lut.seu_flips", "inject.lut.parity_invalidations",
        "timing.ecu.replay_cycles"}) {
    const auto* c = s.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value, 0u) << name;
  }
}

TEST(CollectorDiff, SnapshotListsOnlyInstrumentsThatFired) {
  StreamShape shape;
  shape.hits = false;
  const std::vector<ProbeEvent> events = random_stream(5, 800, shape);
  CollectorConfig config;
  config.timeline = true;
  check_equivalent(events, config);

  TelemetryCollector col(config);
  for (const ProbeEvent& e : events) col.on_event(e);
  const MetricsSnapshot s = col.finish();
  EXPECT_EQ(s.find_counter("memo.lut.hits"), nullptr);
  for (const auto& c : s.counters) {
    const std::string_view name = c.name;
    EXPECT_FALSE(name.starts_with("fpu.") && name.ends_with(".hits")) << name;
  }
  // The misses side did fire, so it is there.
  ASSERT_NE(s.find_counter("memo.lut.misses"), nullptr);

  // An empty stream registers nothing but the timeline gauge.
  TelemetryCollector empty(config);
  const MetricsSnapshot none = empty.finish();
  EXPECT_TRUE(none.counters.empty());
  EXPECT_TRUE(none.histograms.empty());
  ASSERT_EQ(none.gauges.size(), 1u);
  EXPECT_EQ(none.gauges[0].name, "sim.timeline_dropped_events");
}

// -- Batched emission ---------------------------------------------------------

/// One step of a stream: a wavefront op as a compute unit hands it over
/// (`batch` set; `events` is its per-event form, kWavefrontIssue first), or
/// a standalone FPU's transaction, which only has the per-event form.
struct Step {
  std::optional<WavefrontOpBatch> batch;
  std::vector<ProbeEvent> events;
};

/// Appends one random lane transaction on `lane` to `step`: its events in
/// the order the per-event path emits them, and the lane to the batch if
/// there is one (whose lane i runs on stream core i % cores).
void random_lane(Xorshift128& rng, std::uint32_t cu, std::uint8_t unit,
                 std::uint64_t latency, unsigned lane, std::uint16_t core,
                 Step& step) {
  using K = ProbeEvent::Kind;
  const auto coin = [&rng](std::uint64_t one_in) {
    return rng.next_below(one_in) == 0;
  };
  const auto count = [&rng]() -> std::uint64_t {
    return rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(5);
  };
  LaneEvents ev;
  ev.action = static_cast<std::uint8_t>(rng.next_below(kNumActions));
  std::size_t values = 0;
  const auto push = [&](K kind, std::uint64_t value = 0, std::uint8_t aux = 0) {
    step.events.push_back(ProbeEvent{kind, unit, aux, core, cu, value});
    ev.kinds |= kind_bit(kind);
  };
  const auto valued = [&](K kind, std::uint64_t value) {
    push(kind, value);
    ev.values[values++] = value;
  };

  if (coin(6)) {
    push(K::kSpatialReuse, latency);
  } else {
    if (coin(6)) valued(K::kLutSeuFlip, count());
    if (coin(6)) valued(K::kLutParityDrop, count());
    if (!coin(5)) push(coin(2) ? K::kLutHit : K::kLutMiss);
    if (coin(8)) push(K::kEdsFalseNegative);
    if (coin(8)) push(K::kEdsFalsePositive);
    if (coin(4)) push(K::kEdsError);
    if (coin(3)) push(K::kLutWrite);
    std::uint64_t cycles = 0;
    if (coin(4)) {
      cycles = coin(5) ? 0 : 12 * (1 + rng.next_below(2));
      valued(K::kEcuReplay, cycles);
    }
    if (coin(8)) valued(K::kWatchdogTrip, rng.next_below(1000));
    if (coin(5)) push(K::kErrorMasked);
    if (coin(8)) push(K::kSdcCommit);
    push(K::kOpRetired, latency + cycles, ev.action);
  }
  if (step.batch) step.batch->add(lane, ev);
}

/// A seeded stream of wavefront-op batches (any of 64 lanes active, over
/// 1..16 stream cores) on shuffled CUs, with standalone per-event
/// transactions mixed in.
std::vector<Step> random_batches(std::uint64_t seed, std::size_t length) {
  Xorshift128 rng(seed);
  std::vector<std::uint32_t> cus(20);
  std::iota(cus.begin(), cus.end(), 0u);
  for (std::size_t i = cus.size() - 1; i > 0; --i) {
    std::swap(cus[i], cus[rng.next_below(i + 1)]);
  }
  cus.resize(1 + rng.next_below(cus.size()));
  const auto cores = static_cast<std::uint16_t>(1 + rng.next_below(16));

  std::vector<Step> steps(length);
  for (Step& step : steps) {
    const std::uint32_t cu = cus[rng.next_below(cus.size())];
    // Mostly real units, sometimes a byte past the enum ("fpu.?").
    const auto unit = static_cast<std::uint8_t>(
        rng.next_below(8) == 0 ? 200 : rng.next_below(kNumFpuTypes));
    const std::uint64_t latency = 1 + rng.next_below(20);
    if (rng.next_below(10) == 0) {
      const auto core = static_cast<std::uint16_t>(rng.next_below(cores));
      random_lane(rng, cu, unit, latency, core, core, step);
      continue;
    }
    // Full, sparse or empty wavefronts.
    std::uint64_t active = 0;
    switch (rng.next_below(4)) {
      case 0: active = ~0ull; break;
      case 1: active = rng.next_u64() & rng.next_u64(); break;
      case 2: active = 0; break;
      default: active = rng.next_u64(); break;
    }
    step.batch.emplace(cu, unit, cores, latency, active);
    step.events.push_back(
        ProbeEvent{ProbeEvent::Kind::kWavefrontIssue, unit, 0, 0, cu,
                   static_cast<std::uint64_t>(std::popcount(active))});
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      random_lane(rng, cu, unit, latency, lane,
                  static_cast<std::uint16_t>(lane % cores), step);
    }
  }
  return steps;
}

/// Records the events it is sent; batches reach it through ProbeSink's
/// default expansion.
class EventRecorder final : public ProbeSink {
 public:
  void on_event(const ProbeEvent& e) override { events.push_back(e); }
  std::vector<ProbeEvent> events;
};

TEST(CollectorDiff, BatchesMatchTheStringKeyedFoldOfTheirEvents) {
  const std::array<Mode, 4> modes = {{
      kModes[0],
      kModes[1],
      kModes[2],
      {"timeline capped mid-stream", true, 300},
  }};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::vector<Step> steps = random_batches(seed, 250);
    for (const Mode& mode : modes) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                      << mode.label);
      CollectorConfig config;
      config.timeline = mode.timeline;
      config.timeline_max_events = mode.max_events;
      ReferenceCollector ref(config);
      TelemetryCollector col(config);
      for (const Step& step : steps) {
        for (const ProbeEvent& e : step.events) ref.on_event(e);
        if (step.batch) {
          col.on_wavefront_op(*step.batch);
        } else {
          for (const ProbeEvent& e : step.events) col.on_event(e);
        }
      }
      expect_same_snapshot(ref.finish(), col.finish());
      const std::shared_ptr<const Timeline> want_tl = ref.timeline();
      const std::shared_ptr<const Timeline> got_tl = col.take_timeline();
      ASSERT_EQ(want_tl == nullptr, got_tl == nullptr);
      if (want_tl == nullptr) continue;
      EXPECT_EQ(want_tl->dropped(), got_tl->dropped());
      EXPECT_EQ(want_tl->events().size(), got_tl->events().size());
      EXPECT_EQ(trace_of(*want_tl), trace_of(*got_tl));
    }
  }
}

TEST(CollectorDiff, DefaultBatchExpansionIsThePerEventStream) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    for (const Step& step : random_batches(seed, 100)) {
      if (!step.batch) continue;
      EventRecorder got;
      got.on_wavefront_op(*step.batch);
      ASSERT_EQ(got.events.size(), step.events.size());
      for (std::size_t i = 0; i < step.events.size(); ++i) {
        const ProbeEvent& w = step.events[i];
        const ProbeEvent& g = got.events[i];
        EXPECT_EQ(w.kind, g.kind) << i;
        EXPECT_EQ(w.unit, g.unit) << i;
        EXPECT_EQ(w.aux, g.aux) << i;
        EXPECT_EQ(w.core, g.core) << i;
        EXPECT_EQ(w.cu, g.cu) << i;
        EXPECT_EQ(w.value, g.value) << i;
      }
    }
  }
}

} // namespace
} // namespace tmemo::telemetry

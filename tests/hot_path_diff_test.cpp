// Differential oracles for the flattened per-op path: each fast form is
// checked against the direct definition it replaces.
//
//  * VoltageErrorModel's per-unit table against
//    VoltageScaling::op_error_probability, bit for bit;
//  * the device's count-based energy sink against Σ EnergyModel::charge /
//    charge_baseline over the same records;
//  * the ring-buffer MemoLut against a std::deque FIFO model;
//  * the compute unit's issue loop, feeding the device's accumulator in
//    place, against the same launch through a TraceWriter in front of the
//    accumulator and through per-lane ResilientFpu::execute + consume.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "gpu/device.hpp"
#include "memo/lut.hpp"
#include "memo/spatial.hpp"
#include "timing/error_model.hpp"
#include "trace/trace.hpp"

namespace tmemo {
namespace {

// -- Timing: precomputed error probabilities ----------------------------------

TEST(HotPathDiff, VoltageErrorTableEqualsDirectEvaluation) {
  const VoltageScaling scaling{VoltageScalingParams{}};
  for (int step = 0; step <= 10; ++step) {
    const Volt v = 0.80 + 0.01 * step;
    const VoltageErrorModel model(scaling, v);
    for (FpuType unit : kAllFpuTypes) {
      const double direct =
          scaling.op_error_probability(v, fpu_latency_cycles(unit));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(model.op_error_probability(unit)),
                std::bit_cast<std::uint64_t>(direct))
          << fpu_type_name(unit) << " at " << v << " V";
    }
  }
}

// -- Energy: event counts vs per-record charges -------------------------------

/// A record with random flags and cycle counts, including spatial reuses,
/// recoveries, memo-disabled and power-gated ops (module off, no lookup).
ExecutionRecord random_record(Xorshift128& rng) {
  ExecutionRecord rec;
  rec.unit = kAllFpuTypes[rng.next_below(kAllFpuTypes.size())];
  const int depth = fpu_latency_cycles(rec.unit);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  rec.timing_error = rng.bernoulli(0.2);
  rec.recovered = rec.timing_error && rng.bernoulli(0.7);
  rec.spatial_reuse = rng.bernoulli(0.1);
  rec.spatial_compares = below(2);
  rec.active_stage_cycles = rec.spatial_reuse ? 0 : 1 + below(depth);
  rec.gated_stage_cycles = depth - rec.active_stage_cycles;
  rec.recovery_cycles = rec.recovered ? 12 : 0;
  rec.latency_cycles = depth + rec.recovery_cycles;
  switch (below(3)) {
    case 0: // module powered
      rec.memo_enabled = true;
      rec.lut_lookups = 1;
      rec.lut_writes = below(2);
      break;
    case 1: // disabled through the control register
      rec.memo_enabled = false;
      break;
    default: // power-gated: no lookup, no write, no static charge
      rec.memo_enabled = false;
      rec.lut_lookups = 0;
      rec.lut_writes = 0;
      break;
  }
  return rec;
}

bool within_relative(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

TEST(HotPathDiff, CountedEnergyEqualsSummedCharges) {
  GpuDevice device(DeviceConfig::single_cu());
  const EnergyModel& model = device.energy_model();
  std::array<EnergyTotals, kNumFpuTypes> reference{};
  Xorshift128 rng(0xe4e26f);
  const Volt supplies[] = {device.fpu_supply(), 0.82};
  for (const Volt supply : supplies) {
    device.set_fpu_supply(supply);
    for (int i = 0; i < 20000; ++i) {
      const ExecutionRecord rec = random_record(rng);
      device.sink().consume(rec);
      EnergyTotals& ref = reference[static_cast<std::size_t>(rec.unit)];
      ref.memoized_pj += model.charge(rec, supply);
      ref.baseline_pj += model.charge_baseline(rec, supply);
    }
  }
  EnergyTotals reference_total;
  for (FpuType unit : kAllFpuTypes) {
    const EnergyTotals got = device.unit_energy(unit);
    const EnergyTotals& want = reference[static_cast<std::size_t>(unit)];
    EXPECT_GT(want.memoized_pj, 0.0) << fpu_type_name(unit);
    EXPECT_TRUE(within_relative(got.memoized_pj, want.memoized_pj, 1e-12))
        << fpu_type_name(unit) << ": " << got.memoized_pj << " vs "
        << want.memoized_pj;
    EXPECT_TRUE(within_relative(got.baseline_pj, want.baseline_pj, 1e-12))
        << fpu_type_name(unit) << ": " << got.baseline_pj << " vs "
        << want.baseline_pj;
    reference_total += want;
  }
  const EnergyTotals total = device.energy(kAllFpuTypes);
  EXPECT_TRUE(
      within_relative(total.memoized_pj, reference_total.memoized_pj, 1e-12));
  EXPECT_TRUE(
      within_relative(total.baseline_pj, reference_total.baseline_pj, 1e-12));
}

// -- Memo: ring-buffer LUT vs a deque FIFO ------------------------------------

/// The FIFO semantics MemoLut implements, on a std::deque (front = newest).
class DequeLut {
 public:
  explicit DequeLut(int depth) : depth_(depth) {}

  MemoLut::LookupResult lookup(const FpInstruction& ins,
                               const MatchConstraint& c, bool parity) {
    if (parity) {
      for (auto it = fifo_.begin(); it != fifo_.end();) {
        if (it->seu_flips % 2 != 0) {
          it = fifo_.erase(it);
          ++invalidations;
        } else {
          ++it;
        }
      }
    }
    MemoLut::LookupResult res;
    for (const LutEntry& e : fifo_) {
      if (e.opcode == ins.opcode &&
          c.operands_match(ins.opcode, e.operands, ins.operands)) {
        res.hit = true;
        res.value = e.result;
        res.corrupted = e.corrupted();
        break;
      }
    }
    return res;
  }

  void update(const FpInstruction& ins, float result) {
    LutEntry e;
    e.opcode = ins.opcode;
    e.operands = ins.operands;
    e.result = result;
    fifo_.push_front(e);
    while (static_cast<int>(fifo_.size()) > depth_) fifo_.pop_back();
  }

  void corrupt_bit(int index, int word, int bit) {
    LutEntry& e = fifo_[static_cast<std::size_t>(index)];
    float& w = word < kMaxOperands ? e.operands[static_cast<std::size_t>(word)]
                                   : e.result;
    w = bits_to_float(float_to_bits(w) ^ (1u << bit));
    if (e.seu_flips < 255) ++e.seu_flips;
  }

  void clear() { fifo_.clear(); }
  [[nodiscard]] const std::deque<LutEntry>& entries() const { return fifo_; }

  std::uint64_t invalidations = 0;

 private:
  int depth_;
  std::deque<LutEntry> fifo_;
};

void expect_same_entries(const MemoLut& lut, const DequeLut& ref) {
  ASSERT_EQ(static_cast<std::size_t>(lut.size()), ref.entries().size());
  for (int i = 0; i < lut.size(); ++i) {
    const LutEntry& a = lut.entry(i);
    const LutEntry& b = ref.entries()[static_cast<std::size_t>(i)];
    ASSERT_EQ(a.opcode, b.opcode) << "entry " << i;
    ASSERT_EQ(float_to_bits(a.result), float_to_bits(b.result))
        << "entry " << i;
    ASSERT_EQ(a.seu_flips, b.seu_flips) << "entry " << i;
    for (std::size_t w = 0; w < kMaxOperands; ++w) {
      ASSERT_EQ(float_to_bits(a.operands[w]), float_to_bits(b.operands[w]))
          << "entry " << i << " operand " << w;
    }
  }
}

void run_lut_differential(int depth, int steps, std::uint64_t seed) {
  MemoLut lut(depth);
  DequeLut ref(depth);
  Xorshift128 rng(seed);
  const FpOpcode opcodes[] = {FpOpcode::kAdd, FpOpcode::kMul,
                              FpOpcode::kMulAdd, FpOpcode::kSqrt};
  const float pool[] = {0.0f, 1.0f, 1.25f, -2.0f, 3.5f};
  const auto pick = [&rng](std::uint64_t n) { return rng.next_below(n); };
  // A threshold constraint matches several stored entries at once, so the
  // newest-first match order decides the returned value.
  const MatchConstraint constraints[] = {MatchConstraint::exact(),
                                         MatchConstraint::approximate(1.5f)};
  const int check_every = depth > 64 ? 997 : 1;
  int evictions = 0; // updates into a full FIFO: the ring wrapped
  for (int step = 0; step < steps; ++step) {
    if (step % 500 == 0) lut.set_parity_protected(pick(2) == 0);
    FpInstruction ins;
    ins.opcode = opcodes[pick(4)];
    for (float& v : ins.operands) v = pool[pick(5)];
    const std::uint64_t op = pick(100);
    if (op < 45) {
      const MatchConstraint& c = constraints[pick(2)];
      const MemoLut::LookupResult got = lut.lookup_checked(ins, c);
      const MemoLut::LookupResult want =
          ref.lookup(ins, c, lut.parity_protected());
      ASSERT_EQ(got.hit, want.hit) << "step " << step;
      ASSERT_EQ(float_to_bits(got.value), float_to_bits(want.value))
          << "step " << step;
      ASSERT_EQ(got.corrupted, want.corrupted) << "step " << step;
    } else if (op < 90) {
      const float result = static_cast<float>(pick(1000));
      if (lut.size() == depth) ++evictions;
      lut.update(ins, result);
      ref.update(ins, result);
    } else if (op < 99) {
      if (lut.size() > 0) {
        const int index = static_cast<int>(pick(static_cast<std::uint64_t>(
            lut.size())));
        const int word = static_cast<int>(pick(kMaxOperands + 1));
        const int bit = static_cast<int>(pick(32));
        lut.corrupt_bit(index, word, bit);
        ref.corrupt_bit(index, word, bit);
      }
    } else if (depth <= 64) {
      lut.clear();
      ref.clear();
    }
    if (depth > 64 && step == steps / 2) {
      lut.clear();
      ref.clear();
    }
    if (step % check_every == 0) expect_same_entries(lut, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_entries(lut, ref);
  EXPECT_EQ(lut.stats().parity_invalidations, ref.invalidations);
  EXPECT_GT(ref.invalidations, 0u);
  EXPECT_GT(evictions, depth);
}

TEST(HotPathDiff, RingLutMatchesDequeFifo) {
  for (const int depth : {1, 2, 7}) {
    SCOPED_TRACE(depth);
    run_lut_differential(depth, 20000,
                         0x17 + static_cast<std::uint64_t>(depth));
  }
}

TEST(HotPathDiff, DeepRingLutMatchesDequeFifo) {
  // Enough updates to fill all 4096 slots and wrap the ring on both sides
  // of the one mid-run clear.
  run_lut_differential(4096, 40000, 0x4096);
}

// -- Issue: energy counted exactly once, whichever way records arrive ---------

/// One wavefront op of the test launch, with its per-lane operands.
struct WaveOp {
  int cu = 0;
  FpOpcode op = FpOpcode::kAdd;
  StaticInstrId static_id = 0;
  std::uint64_t mask = 0;
  WorkItemId base = 0;
  std::array<std::array<float, 64>, kMaxOperands> operands{};
};

/// A launch of five wavefronts over two compute units, the last one
/// partial, running every FPU type. Operands come from a small alphabet, so
/// LUT hits, approximate matches and spatial reuses all occur.
std::vector<WaveOp> test_launch() {
  const FpOpcode program[] = {
      FpOpcode::kAdd,  FpOpcode::kMul,   FpOpcode::kMulAdd, FpOpcode::kRecip,
      FpOpcode::kSqrt, FpOpcode::kSin,   FpOpcode::kExp2,   FpOpcode::kFp2Int,
      FpOpcode::kInt2Fp, FpOpcode::kSetGt, FpOpcode::kCndGe, FpOpcode::kMul};
  Xorshift128 rng(0x1a0c4);
  std::vector<WaveOp> ops;
  for (int w = 0; w < 5; ++w) {
    for (int round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < std::size(program); ++k) {
        WaveOp op;
        op.cu = w % 2;
        op.op = program[k];
        op.static_id = static_cast<StaticInstrId>(k);
        op.mask = w == 4 ? (1ull << 40) - 1 : ~0ull;
        op.base = static_cast<WorkItemId>(w) * 64;
        for (auto& lanes : op.operands) {
          for (float& v : lanes) {
            v = 1.0f + 0.25f * static_cast<float>(rng.next_below(5));
          }
        }
        ops.push_back(op);
      }
    }
  }
  return ops;
}

/// The per-lane loop the compute unit's issue path replaced: every active
/// lane, sub-wavefront-major, through ResilientFpu::execute (spatial
/// reuses built here, drawing from their own stream as the unit does), and
/// every record into device.sink().
void issue_per_lane(GpuDevice& device, const WaveOp& w, bool spatial,
                    const MatchConstraint& constraint,
                    Xorshift128& spatial_rng, float* results) {
  ComputeUnit& cu = device.compute_unit(w.cu);
  const TimingErrorModel& errors = device.error_model();
  const FpuType unit = opcode_unit(w.op);
  const int pe = StreamCore::vliw_slot(unit, w.static_id);
  const int cores = cu.stream_core_count();
  SpatialMaster master;
  for (int sub = 0; sub < device.config().subwavefronts(); ++sub) {
    for (int sc = 0; sc < cores; ++sc) {
      const int lane = sub * cores + sc;
      if ((w.mask >> lane & 1) == 0) continue;
      FpInstruction ins;
      ins.opcode = w.op;
      ins.static_id = w.static_id;
      ins.work_item = w.base + static_cast<WorkItemId>(lane);
      for (int i = 0; i < opcode_arity(w.op); ++i) {
        ins.operands[static_cast<std::size_t>(i)] =
            w.operands[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(lane)];
      }
      ExecutionRecord rec;
      if (spatial && master.matches(ins, constraint)) {
        rec.unit = unit;
        rec.action = MemoAction::kReuse;
        rec.spatial_reuse = true;
        rec.spatial_compares = 1;
        rec.timing_error = errors.sample_error(unit, spatial_rng);
        rec.error_masked = rec.timing_error;
        rec.gated_stage_cycles = fpu_latency_cycles(unit);
        rec.latency_cycles = fpu_latency_cycles(unit);
        rec.result = master.result();
      } else {
        rec = cu.stream_core(sc).fpu(pe, unit).execute(ins, errors);
        if (spatial && master.armed()) rec.spatial_compares = 1;
        if (spatial && !master.armed()) master.arm(ins, rec.result);
      }
      results[lane] = rec.result;
      device.sink().consume(rec);
    }
  }
}

GpuDevice make_issue_device(bool spatial) {
  DeviceConfig config = DeviceConfig::single_cu();
  config.compute_units = 2;
  GpuDevice device(config);
  device.set_error_model(std::make_shared<FixedRateErrorModel>(0.1));
  device.program_threshold(0.3f);
  device.set_spatial_memoization(spatial);
  return device;
}

void expect_same_stats(const FpuStats& a, const FpuStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.timing_errors, b.timing_errors);
  EXPECT_EQ(a.masked_errors, b.masked_errors);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_cycles, b.recovery_cycles);
  EXPECT_EQ(a.active_stage_cycles, b.active_stage_cycles);
  EXPECT_EQ(a.gated_stage_cycles, b.gated_stage_cycles);
  EXPECT_EQ(a.lut_updates, b.lut_updates);
  EXPECT_EQ(a.sdc_ops, b.sdc_ops);
}

class EnergyCountedOnce : public ::testing::TestWithParam<bool> {};

TEST_P(EnergyCountedOnce, DeviceSinkTraceWriterAndPerLanePathsAgree) {
  const bool spatial = GetParam();
  const std::vector<WaveOp> launch = test_launch();

  // 1. Straight into device.sink(): the counted-in-place path.
  GpuDevice direct = make_issue_device(spatial);
  // 2. Through a TraceWriter that forwards to device.sink(), the pattern of
  //    examples/trace_analysis and the perfbench trace capture.
  GpuDevice traced = make_issue_device(spatial);
  TraceWriter writer(&traced.sink());
  // 3. Per lane through ResilientFpu::execute + device.sink().consume.
  GpuDevice per_lane = make_issue_device(spatial);
  std::array<Xorshift128, 2> spatial_rngs{Xorshift128(0xb0adca57ull),
                                          Xorshift128(0xb0adca57ull)};

  std::size_t records = 0;
  for (const WaveOp& w : launch) {
    std::array<std::array<float, 64>, 3> out{};
    for (auto& lanes : out) lanes.fill(-1.0f);
    const float* a = w.operands[0].data();
    const float* b = w.operands[1].data();
    const float* c = w.operands[2].data();
    direct.compute_unit(w.cu).execute_wavefront_op(
        w.op, w.static_id, a, b, c, w.mask, w.base, direct.error_model(),
        &direct.sink(), out[0].data());
    traced.compute_unit(w.cu).execute_wavefront_op(
        w.op, w.static_id, a, b, c, w.mask, w.base, traced.error_model(),
        &writer, out[1].data());
    issue_per_lane(per_lane, w, spatial, MatchConstraint::approximate(0.3f),
                   spatial_rngs[static_cast<std::size_t>(w.cu)],
                   out[2].data());
    records += static_cast<std::size_t>(std::popcount(w.mask));
    for (std::size_t lane = 0; lane < 64; ++lane) {
      ASSERT_EQ(float_to_bits(out[0][lane]), float_to_bits(out[1][lane]))
          << opcode_name(w.op) << " lane " << lane;
      ASSERT_EQ(float_to_bits(out[0][lane]), float_to_bits(out[2][lane]))
          << opcode_name(w.op) << " lane " << lane;
    }
  }
  EXPECT_EQ(writer.size(), records);

  const auto direct_stats = direct.unit_stats();
  const auto traced_stats = traced.unit_stats();
  const auto per_lane_stats = per_lane.unit_stats();
  std::uint64_t retired = 0;
  std::uint64_t hits = 0;
  std::uint64_t recoveries = 0;
  for (FpuType unit : kAllFpuTypes) {
    SCOPED_TRACE(fpu_type_name(unit));
    const auto u = static_cast<std::size_t>(unit);
    EXPECT_GT(direct_stats[u].instructions, 0u);
    retired += direct_stats[u].instructions;
    hits += direct_stats[u].hits;
    recoveries += direct_stats[u].recoveries;
    expect_same_stats(direct_stats[u], traced_stats[u]);
    expect_same_stats(direct_stats[u], per_lane_stats[u]);
    const EnergyTotals want = direct.unit_energy(unit);
    EXPECT_GT(want.baseline_pj, 0.0);
    EXPECT_EQ(traced.unit_energy(unit).memoized_pj, want.memoized_pj);
    EXPECT_EQ(traced.unit_energy(unit).baseline_pj, want.baseline_pj);
    EXPECT_EQ(per_lane.unit_energy(unit).memoized_pj, want.memoized_pj);
    EXPECT_EQ(per_lane.unit_energy(unit).baseline_pj, want.baseline_pj);
  }
  std::uint64_t reuses = 0;
  for (const SpatialStats& s : direct.spatial_stats()) reuses += s.reuses;
  EXPECT_EQ(retired + reuses, records);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_EQ(reuses > 0, spatial);
}

INSTANTIATE_TEST_SUITE_P(Spatial, EnergyCountedOnce, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "on" : "off";
                         });

} // namespace
} // namespace tmemo

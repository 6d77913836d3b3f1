// Differential oracles for the flattened per-op path: each fast form is
// checked against the direct definition it replaces.
//
//  * VoltageErrorModel's per-unit table against
//    VoltageScaling::op_error_probability, bit for bit;
//  * the device's count-based energy sink against Σ EnergyModel::charge /
//    charge_baseline over the same records;
//  * the ring-buffer MemoLut against a std::deque FIFO model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "gpu/device.hpp"
#include "memo/lut.hpp"
#include "timing/error_model.hpp"

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

} // namespace
} // namespace tmemo

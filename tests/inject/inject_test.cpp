// Fault-injection subsystem tests (src/inject/ + its seams in memo/ and
// timing/): seed derivation, the SEU injector's determinism and Poisson
// process, parity hardening, imperfect-EDS outcomes, the ResilientFpu SDC
// paths, the replay-storm watchdog degradations, and the zero-cost-when-off
// contract. The final tests are the ISSUE acceptance checks: parity strictly
// reduces SDCs at the same seed, and SDC totals surface in KernelRunReport.
#include "inject/fault_config.hpp"
#include "inject/lut_injector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "memo/lut.hpp"
#include "memo/resilient_fpu.hpp"
#include "sim/campaign.hpp"
#include "timing/eds.hpp"
#include "timing/error_model.hpp"

namespace tmemo {
namespace {

FpInstruction ins(FpOpcode op, float a, float b = 0.0f, float c = 0.0f) {
  FpInstruction i;
  i.opcode = op;
  i.operands = {a, b, c};
  return i;
}

// -- Seed derivation (lint rule R8's blessed path) ---------------------------

TEST(DeriveFaultSeed, IsDeterministicAndSaltSensitive) {
  EXPECT_EQ(inject::derive_fault_seed(42, 0), inject::derive_fault_seed(42, 0));
  EXPECT_NE(inject::derive_fault_seed(42, 0), inject::derive_fault_seed(42, 1));
  EXPECT_NE(inject::derive_fault_seed(42, 0), inject::derive_fault_seed(43, 0));
  // The finalizer must not collapse the zero seed.
  EXPECT_NE(inject::derive_fault_seed(0, 0), 0u);
}

TEST(FlipRandomFractionBit, TouchesExactlyOneFractionBit) {
  const std::uint64_t seed = inject::derive_fault_seed(7, 7);
  Xorshift128 rng(seed);
  const float v = 1.5f;
  for (int i = 0; i < 64; ++i) {
    const float flipped = inject::flip_random_fraction_bit(v, rng);
    const std::uint32_t delta = float_to_bits(v) ^ float_to_bits(flipped);
    EXPECT_NE(delta, 0u);                      // the value always changes
    EXPECT_EQ(delta & (delta - 1), 0u);        // exactly one bit
    EXPECT_LT(delta, 1u << 23);                // and it is a fraction bit
  }
}

// -- LutFaultInjector ---------------------------------------------------------

MemoLut warmed_lut(int entries = 2) {
  MemoLut lut(2);
  for (int i = 0; i < entries; ++i) {
    lut.update(ins(FpOpcode::kAdd, static_cast<float>(i), 2.0f),
               static_cast<float>(i) + 2.0f);
  }
  return lut;
}

TEST(LutFaultInjector, SameSeedSameUpsetSequence) {
  inject::LutFaultConfig config;
  config.seu_per_cycle = 0.02;
  const std::uint64_t seed = inject::derive_fault_seed(1, 2);
  inject::LutFaultInjector a(config, seed);
  inject::LutFaultInjector b(config, seed);
  MemoLut lut_a = warmed_lut();
  MemoLut lut_b = warmed_lut();
  for (int step = 0; step < 500; ++step) {
    EXPECT_EQ(a.advance(lut_a, 4), b.advance(lut_b, 4));
  }
  EXPECT_EQ(a.stats().upsets_drawn, b.stats().upsets_drawn);
  EXPECT_EQ(a.stats().bits_flipped, b.stats().bits_flipped);
  ASSERT_EQ(lut_a.size(), lut_b.size());
  for (int i = 0; i < lut_a.size(); ++i) {
    const LutEntry& ea = lut_a.entry(i);
    const LutEntry& eb = lut_b.entry(i);
    EXPECT_EQ(float_to_bits(ea.result), float_to_bits(eb.result));
    EXPECT_EQ(ea.seu_flips, eb.seu_flips);
    for (int w = 0; w < kMaxOperands; ++w) {
      EXPECT_EQ(float_to_bits(ea.operands[static_cast<std::size_t>(w)]),
                float_to_bits(eb.operands[static_cast<std::size_t>(w)]));
    }
  }
}

TEST(LutFaultInjector, DisabledInjectorNeverTouchesItsRng) {
  // Zero-cost-when-off: with seu_per_cycle == 0, advance() must not consume
  // RNG state, so the stream is exactly where a fresh one would be.
  const std::uint64_t seed = inject::derive_fault_seed(9, 3);
  inject::LutFaultInjector idle(inject::LutFaultConfig{}, seed);
  MemoLut lut = warmed_lut();
  for (int step = 0; step < 100; ++step) {
    EXPECT_EQ(idle.advance(lut, 4), 0);
  }
  EXPECT_EQ(idle.stats().cycles_advanced, 0u);
  EXPECT_EQ(idle.stats().upsets_drawn, 0u);
  EXPECT_EQ(idle.stats().bits_flipped, 0u);
  Xorshift128 fresh(seed);
  EXPECT_EQ(idle.rng().next_u64(), fresh.next_u64());
  // Every entry is still pristine.
  for (int i = 0; i < lut.size(); ++i) EXPECT_FALSE(lut.entry(i).corrupted());
}

TEST(LutFaultInjector, PoissonArrivalsLandOnLiveEntriesOnly) {
  inject::LutFaultConfig config;
  config.seu_per_cycle = 0.05;
  inject::LutFaultInjector injector(config,
                                    inject::derive_fault_seed(0x5eed, 4));
  MemoLut empty(2);
  int flipped_in_empty = 0;
  for (int step = 0; step < 400; ++step) flipped_in_empty += injector.advance(empty, 4);
  // Upsets arrive regardless, but land in invalid lines while the FIFO is
  // empty: architecturally harmless.
  EXPECT_EQ(flipped_in_empty, 0);
  EXPECT_GT(injector.stats().upsets_drawn, 0u);
  EXPECT_EQ(injector.stats().bits_flipped, 0u);
  EXPECT_EQ(injector.stats().cycles_advanced, 1600u);

  MemoLut live = warmed_lut();
  int flipped_in_live = 0;
  for (int step = 0; step < 400; ++step) flipped_in_live += injector.advance(live, 4);
  EXPECT_GT(flipped_in_live, 0);
  EXPECT_EQ(injector.stats().bits_flipped,
            static_cast<std::uint64_t>(flipped_in_live));
  EXPECT_GE(injector.stats().upsets_drawn, injector.stats().bits_flipped);
}

// -- MemoLut corruption + parity hardening ------------------------------------

TEST(MemoLut, CorruptBitFlipsStoredWordAndMarksEntry) {
  MemoLut lut(2);
  lut.update(ins(FpOpcode::kAdd, 1.0f, 2.0f), 3.0f);
  const std::uint32_t before = float_to_bits(lut.entry(0).result);
  lut.corrupt_bit(/*entry_index=*/0, /*word=*/kMaxOperands, /*bit=*/5);
  const LutEntry& e = lut.entry(0);
  EXPECT_TRUE(e.corrupted());
  EXPECT_EQ(e.seu_flips, 1);
  EXPECT_EQ(float_to_bits(e.result), before ^ (1u << 5));
}

TEST(MemoLut, UnprotectedLookupServesCorruptLineAndCountsIt) {
  MemoLut lut(2);
  lut.update(ins(FpOpcode::kAdd, 1.0f, 2.0f), 3.0f);
  lut.corrupt_bit(0, kMaxOperands, 5);
  const auto res = lut.lookup_checked(ins(FpOpcode::kAdd, 1.0f, 2.0f),
                                      MatchConstraint::exact());
  EXPECT_TRUE(res.hit);
  EXPECT_TRUE(res.corrupted);
  EXPECT_EQ(float_to_bits(res.value), float_to_bits(3.0f) ^ (1u << 5));
  EXPECT_EQ(lut.stats().corrupt_hits, 1u);
  EXPECT_EQ(lut.stats().parity_invalidations, 0u);
}

TEST(MemoLut, ParityDropsOddFlipLinesBeforeMatching) {
  MemoLut lut(2);
  lut.set_parity_protected(true);
  lut.update(ins(FpOpcode::kAdd, 1.0f, 2.0f), 3.0f);
  lut.corrupt_bit(0, kMaxOperands, 5);
  const auto res = lut.lookup_checked(ins(FpOpcode::kAdd, 1.0f, 2.0f),
                                      MatchConstraint::exact());
  EXPECT_FALSE(res.hit);
  EXPECT_FALSE(res.corrupted);
  EXPECT_EQ(lut.size(), 0);  // the poisoned line is gone
  EXPECT_EQ(lut.stats().parity_invalidations, 1u);
  EXPECT_EQ(lut.stats().corrupt_hits, 0u);
}

TEST(MemoLut, EvenFlipCountEscapesSingleParity) {
  // Two flips restore even parity — exactly the blind spot of real
  // single-parity SRAM. The line survives the check and still serves a
  // corrupted value (counted as a corrupt hit, not an invalidation).
  MemoLut lut(2);
  lut.set_parity_protected(true);
  lut.update(ins(FpOpcode::kAdd, 1.0f, 2.0f), 3.0f);
  lut.corrupt_bit(0, kMaxOperands, 5);
  lut.corrupt_bit(0, kMaxOperands, 9);
  const auto res = lut.lookup_checked(ins(FpOpcode::kAdd, 1.0f, 2.0f),
                                      MatchConstraint::exact());
  EXPECT_TRUE(res.hit);
  EXPECT_TRUE(res.corrupted);
  EXPECT_EQ(lut.stats().parity_invalidations, 0u);
  EXPECT_EQ(lut.stats().corrupt_hits, 1u);
}

// -- Imperfect EDS sensors ----------------------------------------------------

TEST(EdsFaults, CertainFalseNegativeSuppressesRealViolation) {
  inject::EdsFaultConfig faults;
  faults.false_negative_rate = 1.0;
  EdsSensorBank eds(FpuType::kAdd, /*seed=*/11, faults);
  const FixedRateErrorModel always(1.0);
  for (int i = 0; i < 32; ++i) {
    const EdsObservation obs = eds.observe(always);
    EXPECT_TRUE(obs.true_error);
    EXPECT_FALSE(obs.error);  // the ECU never learns about it
    EXPECT_TRUE(obs.false_negative);
    EXPECT_FALSE(obs.false_positive);
    EXPECT_EQ(obs.errant_stage, -1);
  }
}

TEST(EdsFaults, CertainFalsePositiveFlagsCleanPasses) {
  inject::EdsFaultConfig faults;
  faults.false_positive_rate = 1.0;
  EdsSensorBank eds(FpuType::kAdd, /*seed=*/11, faults);
  const NoErrorModel none;
  for (int i = 0; i < 32; ++i) {
    const EdsObservation obs = eds.observe(none);
    EXPECT_FALSE(obs.true_error);
    EXPECT_TRUE(obs.error);  // spurious flag reaches the ECU
    EXPECT_TRUE(obs.false_positive);
    EXPECT_FALSE(obs.false_negative);
    EXPECT_GE(obs.errant_stage, 0);
    EXPECT_LT(obs.errant_stage, eds.depth());
  }
}

TEST(EdsFaults, ZeroRatesLeaveTheSampleStreamBitIdentical) {
  // An explicitly zeroed EdsFaultConfig is disabled, so the Bernoulli draws
  // for the imperfection never happen and the RNG stream matches a
  // fault-free bank sample for sample.
  EdsSensorBank plain(FpuType::kMulAdd, /*seed=*/77);
  EdsSensorBank zeroed(FpuType::kMulAdd, /*seed=*/77, inject::EdsFaultConfig{});
  EXPECT_FALSE(zeroed.faults().enabled());
  const FixedRateErrorModel half(0.5);
  for (int i = 0; i < 256; ++i) {
    const EdsObservation a = plain.observe(half);
    const EdsObservation b = zeroed.observe(half);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.errant_stage, b.errant_stage);
    EXPECT_EQ(a.propagation_cycles, b.propagation_cycles);
  }
}

// -- ResilientFpu SDC paths ---------------------------------------------------

TEST(ResilientFpuInject, MissedErrorCommitsSilentlyAndPoisonsTheLut) {
  ResilientFpuConfig config;
  config.inject.eds.false_negative_rate = 1.0;
  ResilientFpu fpu(FpuType::kAdd, config);
  const FixedRateErrorModel always(1.0);

  // First pass: the violation is real but never flagged. The corrupted
  // value commits (one fraction bit off the exact result) and — worse —
  // W_en memorizes it.
  const auto first = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_EQ(first.action, MemoAction::kNormalExecution);
  EXPECT_FALSE(first.timing_error);  // the observed flag stayed down
  EXPECT_TRUE(first.eds_false_negative);
  EXPECT_TRUE(first.sdc);
  EXPECT_EQ(first.exact_result, 3.0f);
  EXPECT_NE(float_to_bits(first.result), float_to_bits(3.0f));
  EXPECT_TRUE(first.lut_updated);

  // Second pass, same operands: the hit replays the poisoned value.
  const auto second = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_EQ(second.action, MemoAction::kReuse);
  EXPECT_EQ(float_to_bits(second.result), float_to_bits(first.result));

  EXPECT_EQ(fpu.stats().eds_false_negatives, 2u);
  EXPECT_EQ(fpu.stats().sdc_ops, 1u);
  EXPECT_EQ(fpu.ecu().stats().recoveries, 0u);  // nothing ever recovered
}

TEST(ResilientFpuInject, FalsePositivePaysFullRecoveryForNothing) {
  ResilientFpuConfig config;
  config.inject.eds.false_positive_rate = 1.0;
  ResilientFpu fpu(FpuType::kAdd, config);
  const NoErrorModel none;
  const auto rec = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), none);
  EXPECT_EQ(rec.action, MemoAction::kTriggerRecovery);
  EXPECT_TRUE(rec.eds_false_positive);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.recovery_cycles, 12);
  EXPECT_EQ(rec.result, 3.0f);  // the replay is exact; only energy is wasted
  EXPECT_FALSE(rec.sdc);
  EXPECT_FALSE(rec.lut_updated);
  EXPECT_EQ(fpu.stats().eds_false_positives, 1u);
  EXPECT_EQ(fpu.stats().sdc_ops, 0u);
}

TEST(ResilientFpuInject, CorruptReuseIsSilentDataCorruption) {
  ResilientFpu fpu(FpuType::kAdd, ResilientFpuConfig{});
  const NoErrorModel none;
  (void)fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), none);
  fpu.lut().corrupt_bit(0, kMaxOperands, 7);
  const auto rec = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), none);
  EXPECT_EQ(rec.action, MemoAction::kReuse);
  EXPECT_TRUE(rec.corrupt_reuse);
  EXPECT_TRUE(rec.sdc);
  EXPECT_EQ(float_to_bits(rec.result), float_to_bits(3.0f) ^ (1u << 7));
  EXPECT_EQ(fpu.stats().corrupt_reuses, 1u);
  EXPECT_EQ(fpu.stats().sdc_ops, 1u);
}

TEST(ResilientFpuInject, ParityInvalidationPreventsTheCorruptReuse) {
  ResilientFpuConfig config;
  config.inject.lut.parity = true;
  ResilientFpu fpu(FpuType::kAdd, config);
  EXPECT_TRUE(fpu.lut().parity_protected());
  const NoErrorModel none;
  (void)fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), none);
  fpu.lut().corrupt_bit(0, kMaxOperands, 7);
  const auto rec = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), none);
  // The poisoned line was dropped before matching: a clean re-execution
  // commits the exact value and refills the FIFO.
  EXPECT_EQ(rec.action, MemoAction::kNormalExecution);
  EXPECT_FALSE(rec.lut_hit);
  EXPECT_FALSE(rec.sdc);
  EXPECT_EQ(rec.result, 3.0f);
  EXPECT_TRUE(rec.lut_updated);
  EXPECT_EQ(fpu.stats().parity_invalidations, 1u);
  EXPECT_EQ(fpu.stats().corrupt_reuses, 0u);
  EXPECT_EQ(fpu.stats().sdc_ops, 0u);
}

// -- Replay-storm watchdog ----------------------------------------------------

TEST(ResilientFpuInject, WatchdogDisablesMemoizationPastTheBudget) {
  ResilientFpuConfig config;
  config.inject.watchdog.recovery_cycle_budget = 20;
  config.inject.watchdog.action = inject::WatchdogAction::kDisableMemoization;
  ResilientFpu fpu(FpuType::kAdd, config);
  const FixedRateErrorModel always(1.0);

  const auto r1 = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_TRUE(r1.recovered);
  EXPECT_EQ(r1.lut_lookups, 1);  // 12 cycles spent: still under budget
  EXPECT_FALSE(fpu.ecu().storm_tripped());

  const auto r2 = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_TRUE(r2.recovered);  // 24 cycles: the watchdog latches
  EXPECT_TRUE(fpu.ecu().storm_tripped());
  EXPECT_EQ(fpu.ecu().stats().watchdog_trips, 1u);

  // Degraded mode: the module is powered down for every later op — no
  // lookups, no FIFO writes — while the ECU keeps recovering real errors.
  const auto r3 = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_FALSE(r3.memo_enabled);
  EXPECT_EQ(r3.lut_lookups, 0);
  EXPECT_FALSE(r3.lut_updated);
  EXPECT_TRUE(r3.recovered);
  EXPECT_EQ(fpu.ecu().stats().watchdog_trips, 1u);  // trips once, stays latched
}

TEST(ResilientFpuInject, WatchdogGuardbandEndsTheStormInstead) {
  ResilientFpuConfig config;
  config.inject.watchdog.recovery_cycle_budget = 12;
  config.inject.watchdog.action = inject::WatchdogAction::kRaiseGuardband;
  ResilientFpu fpu(FpuType::kAdd, config);
  const FixedRateErrorModel always(1.0);

  (void)fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);  // 12: at budget
  EXPECT_FALSE(fpu.ecu().storm_tripped());
  (void)fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);  // 24: tripped
  EXPECT_TRUE(fpu.ecu().storm_tripped());

  // With the guardband restored, violations are impossible: the sensors are
  // not even sampled, the op executes normally and memoization keeps going.
  const auto r3 = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_FALSE(r3.timing_error);
  EXPECT_FALSE(r3.recovered);
  EXPECT_TRUE(r3.memo_enabled);
  EXPECT_TRUE(r3.lut_updated);
  EXPECT_EQ(fpu.ecu().stats().recovery_cycles, 24u);  // storm over
  const auto r4 = fpu.execute(ins(FpOpcode::kAdd, 1.0f, 2.0f), always);
  EXPECT_EQ(r4.action, MemoAction::kReuse);  // and hits resume
}

// -- Zero-cost-when-off -------------------------------------------------------

TEST(ZeroCostWhenOff, DefaultConfigModelsFaultFreeHardware) {
  const inject::FaultInjectionConfig config;
  EXPECT_FALSE(config.lut.enabled());
  EXPECT_FALSE(config.eds.enabled());
  EXPECT_FALSE(config.watchdog.enabled());
  EXPECT_FALSE(config.any_faults());
}

TEST(ZeroCostWhenOff, HardeningAloneChangesNothingOnFaultFreeHardware) {
  // Parity protection is pure hardening: with no SEUs there is never a
  // corrupt line to drop, so a parity-protected FPU is bit-identical to the
  // plain one on the same instruction stream.
  ResilientFpuConfig plain;
  ResilientFpuConfig hardened;
  hardened.inject.lut.parity = true;
  ResilientFpu a(FpuType::kAdd, plain);
  ResilientFpu b(FpuType::kAdd, hardened);
  const FixedRateErrorModel half(0.5);
  for (int i = 0; i < 512; ++i) {
    const auto op = ins(FpOpcode::kAdd, static_cast<float>(i % 7), 2.0f);
    const auto ra = a.execute(op, half);
    const auto rb = b.execute(op, half);
    EXPECT_EQ(ra.action, rb.action);
    EXPECT_EQ(float_to_bits(ra.result), float_to_bits(rb.result));
    EXPECT_EQ(ra.timing_error, rb.timing_error);
    EXPECT_EQ(ra.lut_hit, rb.lut_hit);
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().recoveries, b.stats().recoveries);
  EXPECT_EQ(b.stats().parity_invalidations, 0u);
  EXPECT_EQ(b.stats().sdc_ops, 0u);
}

// -- ISSUE acceptance: parity strictly reduces SDCs at the same seed ----------

TEST(Acceptance, ParityProtectedRunCommitsStrictlyFewerSdcs) {
  // Same seed, same SEU rate, same instruction stream; the only difference
  // is the parity bit. Unprotected hardware replays corrupt lines freely;
  // parity catches every odd-flip line, leaving only the rare even-flip
  // escapes.
  const auto run = [](bool parity) {
    ResilientFpuConfig config;
    config.eds_seed = 0x5eed;
    config.inject.lut.seu_per_cycle = 0.05;
    config.inject.lut.parity = parity;
    ResilientFpu fpu(FpuType::kAdd, config);
    const NoErrorModel none;
    std::uint64_t sdc = 0;
    for (int i = 0; i < 2000; ++i) {
      // A 4-value working set keeps the 2-entry FIFO hot: most ops hit, so
      // corrupt lines get plenty of chances to be reused.
      const auto op = ins(FpOpcode::kAdd, static_cast<float>(i % 2), 2.0f);
      sdc += fpu.execute(op, none).sdc ? 1u : 0u;
    }
    EXPECT_EQ(sdc, fpu.stats().sdc_ops);
    return fpu.stats();
  };
  const FpuStats unprotected = run(false);
  const FpuStats hardened = run(true);
  ASSERT_GT(unprotected.sdc_ops, 0u) << "the SEU rate must actually bite";
  EXPECT_LT(hardened.sdc_ops, unprotected.sdc_ops);
  EXPECT_GT(hardened.parity_invalidations, 0u);
  EXPECT_EQ(unprotected.parity_invalidations, 0u);
  // Both runs saw the same upset process (same derived seed, same rate).
  EXPECT_GT(unprotected.seu_flips, 0u);
  EXPECT_GT(hardened.seu_flips, 0u);
}

// -- ISSUE acceptance: SDC totals surface in KernelRunReport ------------------

TEST(Acceptance, SdcAccountingReachesTheCampaignReport) {
  SweepSpec spec;
  spec.scale = 0.01;
  spec.kernels = {"haar"};
  spec.axis = SweepAxis::error_rate_point(0.02);
  // Exact matching: with a zero threshold the memo path introduces no
  // approximation noise, so every nonzero output deviation below is a real
  // injected corruption, not an approximate-reuse artifact.
  spec.thresholds = {0.0f};
  spec.variants.push_back({"base", {}});
  ConfigVariant faulty;
  faulty.label = "eds-fn";
  faulty.config.device.fpu.inject.eds.false_negative_rate = 1.0;
  spec.variants.push_back(faulty);

  const CampaignResult res = CampaignEngine(1).run(spec);
  ASSERT_EQ(res.jobs.size(), 2u);
  const JobResult& base = res.jobs[0];
  const JobResult& faulted = res.jobs[1];
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(faulted.ok);
  // Fault-free hardware never commits silent corruption.
  EXPECT_EQ(base.report.total_sdc_ops(), 0u);
  EXPECT_EQ(base.report.result.sdc_values, 0u);
  // With every real violation missed, corrupted values commit and show up
  // both in the op-level count and in the host-side output diff.
  EXPECT_GT(faulted.report.total_sdc_ops(), 0u);
  EXPECT_GT(faulted.report.sdc_op_rate(), 0.0);
  EXPECT_GT(faulted.report.result.sdc_values, 0u);

  // And the writers carry the columns (satellite of the SDC accounting).
  std::ostringstream csv;
  write_campaign_csv(res, csv);
  EXPECT_NE(csv.str().find("sdc_values,sdc_ops"), std::string::npos);
  std::ostringstream json;
  write_campaign_json(res, json);
  EXPECT_NE(json.str().find("\"sdc_ops\""), std::string::npos);
}

} // namespace
} // namespace tmemo

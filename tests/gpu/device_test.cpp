#include "gpu/device.hpp"

#include <gtest/gtest.h>

#include "kernel/launch.hpp"

namespace tmemo {
namespace {

GpuDevice small_device() {
  return GpuDevice(DeviceConfig::single_cu());
}

TEST(GpuDevice, Radeon5870Shape) {
  GpuDevice device;
  EXPECT_EQ(device.compute_unit_count(), 20);
  EXPECT_EQ(device.config().stream_cores_per_cu, 16);
  EXPECT_EQ(device.config().wavefront_size, 64);
  EXPECT_EQ(device.config().subwavefronts(), 4);
}

TEST(GpuDevice, ConfigValidation) {
  DeviceConfig bad;
  bad.compute_units = 0;
  EXPECT_THROW(GpuDevice{bad}, std::invalid_argument);
  bad = {};
  bad.wavefront_size = 65;
  EXPECT_THROW(GpuDevice{bad}, std::invalid_argument);
  bad = {};
  bad.wavefront_size = 24; // not a multiple of 16 stream cores
  EXPECT_THROW(GpuDevice{bad}, std::invalid_argument);
}

TEST(GpuDevice, FpuSupplyValidation) {
  GpuDevice device = small_device();
  EXPECT_EQ(device.fpu_supply(), 0.9);
  device.set_fpu_supply(0.8);
  EXPECT_EQ(device.fpu_supply(), 0.8);
  EXPECT_THROW(device.set_fpu_supply(0.0), std::invalid_argument);
}

TEST(GpuDevice, NullErrorModelRejected) {
  GpuDevice device = small_device();
  EXPECT_THROW(device.set_error_model(nullptr), std::invalid_argument);
}

TEST(GpuDevice, ThresholdBroadcastReachesEveryFpu) {
  GpuDevice device = small_device();
  device.program_threshold(0.25f);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.registers().threshold(), 0.25f);
  });
  device.program_exact();
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_TRUE(f.registers().constraint().is_exact());
  });
}

TEST(GpuDevice, MaskBroadcast) {
  GpuDevice device = small_device();
  device.program_threshold_as_mask(0.5f);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.registers().constraint().kind(),
              MatchConstraint::Kind::kMask);
  });
}

TEST(GpuDevice, EnableAndPowerGateBroadcast) {
  GpuDevice device = small_device();
  device.set_memo_enabled(false);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_FALSE(f.registers().enabled());
  });
  device.set_memo_enabled(true);
  device.set_power_gated(true);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_TRUE(f.power_gated());
  });
}

TEST(GpuDevice, LutPreloadOnlyReachesMatchingUnits) {
  GpuDevice device = small_device();
  LutEntry e;
  e.opcode = FpOpcode::kRecip;
  e.operands = {16.0f, 0.0f, 0.0f};
  e.result = 0.0625f;
  device.preload_lut(e);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    if (f.unit() == FpuType::kRecip) {
      EXPECT_EQ(f.lut().size(), 1);
    } else {
      EXPECT_EQ(f.lut().size(), 0);
    }
  });
}

TEST(GpuDevice, SetLutDepthRebuilds) {
  GpuDevice device = small_device();
  device.set_lut_depth(8);
  EXPECT_EQ(device.config().fpu.lut_depth, 8);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.lut().depth(), 8);
  });
}

TEST(GpuDevice, StatsAggregateAcrossLaunch) {
  GpuDevice device = small_device();
  launch(device, 256, [](WavefrontCtx& wf) {
    const LaneVec x = wf.splat(2.0f);
    (void)wf.mul(x, x);
    (void)wf.sqrt(x);
  });
  const auto stats = device.unit_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(FpuType::kMul)].instructions, 256u);
  EXPECT_EQ(stats[static_cast<std::size_t>(FpuType::kSqrt)].instructions,
            256u);
  EXPECT_EQ(stats[static_cast<std::size_t>(FpuType::kAdd)].instructions, 0u);
  // Splat-constant operands: massive hit rate after the cold miss per FPU.
  EXPECT_GT(device.weighted_hit_rate(), 0.8);
}

TEST(GpuDevice, EnergyAccumulatesOnlyForExecutedUnits) {
  GpuDevice device = small_device();
  launch(device, 64, [](WavefrontCtx& wf) {
    (void)wf.mul(wf.splat(1.0f), wf.splat(2.0f));
  });
  EXPECT_GT(device.unit_energy(FpuType::kMul).baseline_pj, 0.0);
  EXPECT_EQ(device.unit_energy(FpuType::kAdd).baseline_pj, 0.0);
  const FpuType only_mul[] = {FpuType::kMul};
  EXPECT_EQ(device.energy(only_mul).baseline_pj,
            device.unit_energy(FpuType::kMul).baseline_pj);
}

TEST(GpuDevice, ResetStatsClearsEverythingButConfig) {
  GpuDevice device = small_device();
  device.program_threshold(0.5f);
  launch(device, 64, [](WavefrontCtx& wf) {
    (void)wf.add(wf.splat(1.0f), wf.splat(2.0f));
  });
  EXPECT_GT(device.energy().baseline_pj, 0.0);
  device.reset_stats();
  EXPECT_EQ(device.energy().baseline_pj, 0.0);
  EXPECT_EQ(device.total_stats(kAllFpuTypes).instructions, 0u);
  // Config survives.
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.registers().threshold(), 0.5f);
  });
}

TEST(GpuDevice, EnergyAccumulatorSurvivesMove) {
  // Regression: the accumulator used to hold references into the device it
  // was constructed in, so a moved device charged energy through dangling
  // references to the moved-from object's supply. It must follow the move
  // and read the live supply of its new owner.
  GpuDevice original = small_device();
  GpuDevice moved = std::move(original);
  moved.set_fpu_supply(0.8);
  launch(moved, 64, [](WavefrontCtx& wf) {
    (void)wf.mul(wf.splat(1.0f), wf.splat(2.0f));
  });

  GpuDevice fresh(DeviceConfig::single_cu());
  fresh.set_fpu_supply(0.8);
  launch(fresh, 64, [](WavefrontCtx& wf) {
    (void)wf.mul(wf.splat(1.0f), wf.splat(2.0f));
  });

  EXPECT_GT(moved.unit_energy(FpuType::kMul).baseline_pj, 0.0);
  EXPECT_EQ(moved.unit_energy(FpuType::kMul).baseline_pj,
            fresh.unit_energy(FpuType::kMul).baseline_pj);
  EXPECT_EQ(moved.unit_energy(FpuType::kMul).memoized_pj,
            fresh.unit_energy(FpuType::kMul).memoized_pj);
}

TEST(GpuDevice, MoveAssignmentRebindsAccumulator) {
  GpuDevice device = small_device();
  device = GpuDevice(DeviceConfig::single_cu());
  device.set_fpu_supply(0.85);
  launch(device, 64, [](WavefrontCtx& wf) {
    (void)wf.add(wf.splat(1.0f), wf.splat(2.0f));
  });
  EXPECT_GT(device.unit_energy(FpuType::kAdd).baseline_pj, 0.0);
}

TEST(GpuDevice, DisabledMemoMatchesBaselineEnergy) {
  // With the module disabled, memoized == baseline for every record (no
  // hits, no LUT charges) in an error-free run.
  GpuDevice device = small_device();
  device.set_memo_enabled(false);
  launch(device, 128, [](WavefrontCtx& wf) {
    (void)wf.muladd(wf.splat(1.0f), wf.splat(2.0f), wf.splat(3.0f));
  });
  const EnergyTotals t = device.energy();
  EXPECT_NEAR(t.memoized_pj, t.baseline_pj, 1e-6);
}

TEST(GpuDevice, SetLutDepthKeepsProgramming) {
  GpuDevice device = small_device();
  device.program_threshold(0.25f);
  device.set_commutativity(false);
  device.set_memo_enabled(false);
  LutEntry e;
  e.opcode = FpOpcode::kRecip;
  e.operands = {16.0f, 0.0f, 0.0f};
  e.result = 0.0625f;
  device.preload_lut(e);
  device.set_spatial_memoization(true);
  device.set_lut_depth(8);

  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.lut().depth(), 8);
    EXPECT_EQ(f.registers().threshold(), 0.25f);
    EXPECT_FALSE(f.registers().commutativity());
    EXPECT_FALSE(f.registers().enabled());
    EXPECT_EQ(f.lut().size(), f.unit() == FpuType::kRecip ? 1 : 0);
  });
  // The spatial comparators keep both the mode and the 0.25 threshold:
  // lanes 1e-4 apart all reuse the master's result.
  ASSERT_TRUE(device.compute_unit(0).spatial_memoization());
  launch(device, 64, [](WavefrontCtx& wf) {
    LaneVec x;
    for (int i = 0; i < 64; ++i) x[i] = 1.0f + 1e-4f * static_cast<float>(i);
    (void)wf.mul(x, x);
  });
  const auto spatial = device.spatial_stats();
  EXPECT_EQ(spatial[static_cast<std::size_t>(FpuType::kMul)].reuses, 63u);
}

TEST(GpuDevice, SetLutDepthKeepsPowerGating) {
  GpuDevice device = small_device();
  device.set_power_gated(true);
  device.set_lut_depth(4);
  device.compute_unit(0).for_each_fpu([](const ResilientFpu& f) {
    EXPECT_EQ(f.lut().depth(), 4);
    EXPECT_TRUE(f.power_gated());
  });
}

TEST(GpuDevice, SetLutDepthRejectsOutOfRangeDepth) {
  GpuDevice device = small_device();
  EXPECT_THROW(device.set_lut_depth(0), std::invalid_argument);
  EXPECT_THROW(device.set_lut_depth(4097), std::invalid_argument);
  EXPECT_EQ(device.config().fpu.lut_depth, 2);
}

TEST(GpuDevice, FpusAreCreatedOnFirstIssue) {
  // Programming creates no FPU; one 64-lane single-op launch on the default
  // 20-CU device creates exactly one per stream core of CU 0 (16 of 7680).
  GpuDevice device;
  device.program_threshold(0.5f);
  device.set_commutativity(true);
  int created = 0;
  device.for_each_created_fpu([&](const ResilientFpu&) { ++created; });
  EXPECT_EQ(created, 0);

  launch(device, 64, [](WavefrontCtx& wf) {
    (void)wf.mul(wf.splat(1.0f), wf.splat(2.0f));
  });
  device.for_each_created_fpu([&](const ResilientFpu& f) {
    ++created;
    EXPECT_EQ(f.unit(), FpuType::kMul);
  });
  EXPECT_EQ(created, 16);
  ComputeUnit& cu0 = device.compute_unit(0);
  for (int sc = 0; sc < cu0.stream_core_count(); ++sc) {
    int on_core = 0;
    cu0.stream_core(sc).for_each_created_fpu(
        [&](const ResilientFpu&) { ++on_core; });
    EXPECT_EQ(on_core, 1) << "stream core " << sc;
  }
}

} // namespace
} // namespace tmemo

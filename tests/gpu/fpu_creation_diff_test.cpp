// Differential test: FPUs created on first issue vs all built up front.
//
// A device creates each FPU the first time an instruction reaches it and
// brings it to the stored device programming. These tests replay seeded
// random sequences of programming calls (registers, power gating, LUT
// preloads and depth, telemetry, spatial mode) interleaved with small
// launches on two devices. The reference creates every FPU right after
// construction and after every set_lut_depth (ComputeUnit::for_each_fpu),
// as an eagerly built device would hold them; the other creates them on
// demand. Lane results, unit statistics, energy and spatial statistics
// must agree after every launch; every FPU's registers, gating, LUT
// contents and statistics, and the telemetry snapshot must agree at the
// end.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpu/device.hpp"
#include "kernel/launch.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/exporters.hpp"

namespace tmemo {
namespace {

// Few distinct operand values, so LUT hits, preload hits and spatial
// reuses all happen; 2.001 sits inside the 0.01 threshold of 2.0.
constexpr float kPool[] = {1.0f, 1.5f, 2.0f, 2.001f, 4.0f, 9.0f};
constexpr FpOpcode kOps[] = {FpOpcode::kAdd,  FpOpcode::kMul,
                             FpOpcode::kMulAdd, FpOpcode::kSqrt,
                             FpOpcode::kRecip, FpOpcode::kSin};

std::string hex(float x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", static_cast<double>(x));
  return buf;
}

std::string hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

void put(std::ostream& os, const FpuStats& s) {
  for (std::uint64_t v :
       {s.instructions, s.hits, s.timing_errors, s.masked_errors,
        s.recoveries, s.recovery_cycles, s.active_stage_cycles,
        s.gated_stage_cycles, s.lut_updates, s.seu_flips,
        s.parity_invalidations, s.corrupt_reuses, s.eds_false_negatives,
        s.eds_false_positives, s.sdc_ops}) {
    os << v << ' ';
  }
}

void put(std::ostream& os, const ResilientFpu& f) {
  os << fpu_type_name(f.unit()) << " regs";
  for (MemoRegister r :
       {MemoRegister::kMaskingVector, MemoRegister::kThreshold,
        MemoRegister::kControl, MemoRegister::kStatusHits}) {
    os << ' ' << f.registers().read(r);
  }
  os << " gated " << f.power_gated() << " lut " << f.lut().depth() << '/'
     << f.lut().size() << " [";
  for (int i = 0; i < f.lut().size(); ++i) {
    const LutEntry& e = f.lut().entry(i);
    os << static_cast<int>(e.opcode) << ':' << hex(e.operands[0]) << ','
       << hex(e.operands[1]) << ',' << hex(e.operands[2]) << "->"
       << hex(e.result) << '#' << static_cast<int>(e.seu_flips) << ' ';
  }
  const LutStats& l = f.lut().stats();
  const EcuStats& c = f.ecu().stats();
  os << "] lutstats " << l.lookups << ' ' << l.hits << ' ' << l.updates << ' '
     << l.parity_invalidations << ' ' << l.corrupt_hits << " ecu "
     << c.errors_signaled << ' ' << c.masked_errors << ' ' << c.recoveries
     << ' ' << c.recovery_cycles << ' ' << c.flushed_ops << ' '
     << c.watchdog_trips << " stats ";
  put(os, f.stats());
}

/// Everything a launch leaves visible without creating FPUs.
std::string device_view(const GpuDevice& device) {
  std::ostringstream os;
  for (const FpuStats& s : device.unit_stats()) put(os, s);
  for (FpuType u : kAllFpuTypes) {
    const EnergyTotals e = device.unit_energy(u);
    os << hex(e.memoized_pj) << ' ' << hex(e.baseline_pj) << ' ';
  }
  for (const SpatialStats& s : device.spatial_stats()) {
    os << s.comparisons << ' ' << s.reuses << ' ';
  }
  return os.str();
}

LaneVec issue(WavefrontCtx& wf, FpOpcode op, const LaneVec& x,
             const LaneVec& y) {
  switch (op) {
    case FpOpcode::kAdd: return wf.add(x, y);
    case FpOpcode::kMul: return wf.mul(x, y);
    case FpOpcode::kMulAdd: return wf.muladd(x, y, x);
    case FpOpcode::kSqrt: return wf.sqrt(x);
    case FpOpcode::kRecip: return wf.recip(x);
    default: return wf.sin(x);
  }
}

void create_all_fpus(GpuDevice& device) {
  for (int cu = 0; cu < device.compute_unit_count(); ++cu) {
    device.compute_unit(cu).for_each_fpu([](ResilientFpu&) {});
  }
}

/// Runs random sequence `seed` and returns one checkpoint string per
/// launch, then the final per-FPU state and telemetry snapshot.
std::vector<std::string> run_sequence(std::uint64_t seed, bool up_front) {
  DeviceConfig config = DeviceConfig::single_cu();
  config.compute_units = 2;
  config.seed = mix_seed(0xd1ffull, seed);
  GpuDevice device(config);
  device.set_error_model(std::make_shared<FixedRateErrorModel>(0.05));
  if (up_front) create_all_fpus(device);

  telemetry::TelemetryCollector collector;
  std::vector<std::string> out;
  Xorshift128 rng(mix_seed(0x5e9ull, seed));
  const auto pick = [&](auto& choices) -> const auto& {
    return choices[rng.next_below(std::size(choices))];
  };
  const auto coin = [&] { return rng.next_below(2) == 1; };
  constexpr float kThresholds[] = {0.01f, 0.5f};
  constexpr int kDepths[] = {1, 2, 4};

  for (int step = 0; step < 40; ++step) {
    switch (rng.next_below(14)) {
      case 0: device.program_exact(); break;
      case 1: device.program_threshold(pick(kThresholds)); break;
      case 2: device.program_threshold_as_mask(pick(kThresholds)); break;
      case 3: device.set_commutativity(coin()); break;
      case 4: device.set_memo_enabled(coin()); break;
      case 5: device.set_power_gated(coin()); break;
      case 6: {
        LutEntry e;
        e.opcode = pick(kOps);
        e.operands = {pick(kPool), pick(kPool), pick(kPool)};
        e.result = pick(kPool);
        device.preload_lut(e);
        break;
      }
      case 7:
        device.set_lut_depth(pick(kDepths));
        if (up_front) create_all_fpus(device);
        break;
      case 8:
        device.set_telemetry(coin() ? &collector : nullptr);
        break;
      case 9: device.set_spatial_memoization(coin()); break;
      default: {
        // 64..192 work-items, so one or both compute units; each launch
        // issues up to three static instructions with per-lane operands.
        const std::size_t n = 64 * (1 + rng.next_below(3));
        std::vector<float> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
          a[i] = pick(kPool);
          b[i] = pick(kPool);
        }
        std::vector<FpOpcode> ops(1 + rng.next_below(3));
        for (FpOpcode& op : ops) op = pick(kOps);
        std::vector<float> results(n * ops.size());
        launch(device, n, [&](WavefrontCtx& wf) {
          const auto gid = [](int, WorkItemId g) { return g; };
          const LaneVec x = wf.gather(a, gid);
          const LaneVec y = wf.gather(b, gid);
          for (std::size_t k = 0; k < ops.size(); ++k) {
            const LaneVec r = issue(wf, ops[k], x, y);
            wf.scatter(std::span<float>(results).subspan(k * n, n), r, gid);
          }
        });
        std::string view = device_view(device) + "results";
        for (float r : results) view += ' ' + hex(r);
        out.push_back(std::move(view));
      }
    }
  }

  device.set_telemetry(nullptr);
  std::ostringstream fpus;
  for (int cu = 0; cu < device.compute_unit_count(); ++cu) {
    device.compute_unit(cu).for_each_fpu([&](const ResilientFpu& f) {
      put(fpus, f);
      fpus << '\n';
    });
  }
  out.push_back(fpus.str());
  std::ostringstream metrics;
  telemetry::write_metrics_json(collector.finish(), metrics);
  out.push_back(metrics.str());
  return out;
}

TEST(FpuCreationDiff, OnDemandMatchesUpFront) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("sequence seed " + std::to_string(seed));
    const auto want = run_sequence(seed, /*up_front=*/true);
    const auto got = run_sequence(seed, /*up_front=*/false);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << "checkpoint " << i;
    }
  }
}

TEST(FpuCreationDiff, GatingAndPreloadOrdersMatchUpFront) {
  // The three orders the stored programming has to replay: a preload
  // before gating is lost with the LUT contents, one after gating stays,
  // and one after un-gating stays.
  LutEntry e;
  e.opcode = FpOpcode::kMul;
  e.operands = {2.0f, 3.0f, 0.0f};
  e.result = 6.0f;
  const auto run = [&](bool up_front, auto&& program) {
    GpuDevice device(DeviceConfig::single_cu());
    if (up_front) create_all_fpus(device);
    program(device);
    std::ostringstream os;
    device.compute_unit(0).for_each_fpu([&](const ResilientFpu& f) {
      put(os, f);
      os << '\n';
    });
    return os.str();
  };
  const auto preload_gate = [&](GpuDevice& d) {
    d.preload_lut(e);
    d.set_power_gated(true);
  };
  const auto gate_preload = [&](GpuDevice& d) {
    d.set_power_gated(true);
    d.preload_lut(e);
  };
  const auto preload_gate_ungate_preload = [&](GpuDevice& d) {
    d.preload_lut(e);
    d.set_power_gated(true);
    d.set_power_gated(false);
    d.preload_lut(e);
  };
  EXPECT_EQ(run(true, preload_gate), run(false, preload_gate));
  EXPECT_EQ(run(true, gate_preload), run(false, gate_preload));
  EXPECT_EQ(run(true, preload_gate_ungate_preload),
            run(false, preload_gate_ungate_preload));
}

} // namespace
} // namespace tmemo

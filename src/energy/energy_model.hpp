// Energy accounting for the resilient FPU architecture.
//
// The paper's energy numbers come from a TSMC 45 nm ASIC flow (FloPoCo FPU
// RTL, Design Compiler / IC Compiler, PrimeTime voltage scaling) signed off
// at 1 GHz / 0.9 V. We substitute an analytic per-event model with
// constants calibrated to that technology class:
//
//  * every FPU type has a per-operation dynamic energy at nominal voltage,
//    spread uniformly over its pipeline stages;
//  * dynamic energy scales as (V/Vnom)^2 under voltage overscaling, while
//    the memoization module stays at the fixed nominal voltage (paper §5.3:
//    "To ensure always correct functionality of the temporal memoization
//    module, we maintain its operating voltage at the fixed nominal 0.9V");
//  * a clock-gated stage still burns a small residual (clock tree stub +
//    leakage) fraction of its active energy;
//  * an ECU recovery charges the energy of the flush + multiple-issue
//    replay + the lock-step stall of the lane — expressed as a multiple of
//    the op energy, dominated by the 12-cycle replay sequence and the
//    pipeline-wide squash (paper §1 argues this cost is quadratically
//    worse in wide/deep SIMD pipelines than in scalar cores).
//
// All constants live in EnergyParams and are swept by
// bench/ablation_energy_model to show which conclusions are sensitive to
// them.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "fpu/opcode.hpp"
#include "memo/resilient_fpu.hpp"
#include "timing/voltage.hpp"

namespace tmemo {

/// Calibration constants (all energies in pJ at the nominal voltage).
struct EnergyParams {
  /// Per-operation dynamic energy by FPU type, indexed by FpuType.
  /// 45 nm-class single-precision units at 1 GHz: conversions are cheap,
  /// the adder datapath modest, multiplier and FMA larger, and the deep
  /// iterative transcendental units the most expensive.
  std::array<double, kNumFpuTypes> fpu_op_energy_pj = {
      9.0,   // ADD
      14.0,  // MUL
      21.0,  // MULADD
      30.0,  // SQRT
      65.0,  // RECIP (16-stage pipeline)
      5.0,   // FP2INT
      5.0,   // INT2FP
      45.0,  // TRIG
      40.0,  // EXPLOG
  };

  /// One associative lookup of the 2-entry LUT (3x32-bit comparators per
  /// entry + output mux). Fixed at the module's nominal supply.
  double lut_lookup_pj = 0.8;

  /// One FIFO write (W_en fires).
  double lut_update_pj = 0.5;

  /// Module leakage + clock per occupied FPU cycle (always-on module).
  double memo_static_pj_per_cycle = 0.03;

  /// Fraction of a stage's active energy still burned when clock-gated.
  /// The squashed stages stop their datapath logic, but the staging
  /// registers that carry the memorized result Q_L (and the forwarded
  /// gating/hit signals) keep clocking, so a gated stage is not free.
  double clock_gate_residual = 0.30;

  /// One lane-vs-master operand comparison of the spatial-memoization
  /// comparator (reference [20]; see memo/spatial.hpp). Unlike the
  /// per-FPU temporal LUT, the master's operands must be routed across
  /// the 16-lane cluster to every comparator, so this costs more than a
  /// local 2-entry lookup.
  double spatial_compare_pj = 1.2;

  /// Broadcasting the master lane's result across the 16-lane-wide SIMD
  /// result crossbar to one reusing lane — the cross-lane wiring cost the
  /// paper says "tightens its scalability".
  double spatial_broadcast_pj = 3.0;

  /// Recovery energy per error, as a multiple of the errant op's energy.
  /// The 12-cycle multiple-issue replay stalls the whole 16-lane lock-step
  /// group (paper §1: recovery in wide+deep SIMD pipelines is quadratically
  /// more expensive than in scalar units): 12 cycles x 16 lanes / 4-stage
  /// op = 48 op-equivalents of wasted issue per error.
  double recovery_energy_factor = 48.0;

  /// Nominal supply of the flow (paper: 0.9 V).
  Volt nominal_voltage = 0.9;
};

struct EnergyTotals;

/// Per-unit event counts. EnergyModel::charge and charge_baseline are
/// linear in these, so counting events per record and evaluating the sum
/// once (EnergyModel::energy) gives the summed per-record charges, up to
/// float summation order.
struct EnergyCounts {
  std::uint64_t ops = 0;
  std::uint64_t timing_errors = 0;       ///< EDS flags (baseline recoveries)
  std::uint64_t recoveries = 0;          ///< memoized-design ECU recoveries
  std::uint64_t active_stage_cycles = 0;
  std::uint64_t gated_stage_cycles = 0;
  std::uint64_t spatial_compares = 0;
  std::uint64_t spatial_reuses = 0;
  // Memoization-module events, counted only while the module is powered.
  std::uint64_t lut_lookups = 0;
  std::uint64_t lut_writes = 0;
  std::uint64_t memo_latency_cycles = 0;

  void add(const ExecutionRecord& rec) noexcept {
    ++ops;
    timing_errors += rec.timing_error ? 1 : 0;
    recoveries += rec.recovered ? 1 : 0;
    active_stage_cycles += static_cast<std::uint64_t>(rec.active_stage_cycles);
    gated_stage_cycles += static_cast<std::uint64_t>(rec.gated_stage_cycles);
    spatial_compares += static_cast<std::uint64_t>(rec.spatial_compares);
    spatial_reuses += rec.spatial_reuse ? 1 : 0;
    if (rec.memo_enabled) {
      lut_lookups += static_cast<std::uint64_t>(rec.lut_lookups);
      lut_writes += static_cast<std::uint64_t>(rec.lut_writes);
      memo_latency_cycles += static_cast<std::uint64_t>(rec.latency_cycles);
    }
  }
};

/// Converts ExecutionRecords into energy, with optional voltage scaling.
class EnergyModel {
 public:
  explicit EnergyModel(const EnergyParams& params = {},
                       const VoltageScaling& scaling = VoltageScaling{});

  [[nodiscard]] const EnergyParams& params() const noexcept { return params_; }

  /// Per-op dynamic energy of `unit` at supply `v`.
  [[nodiscard]] EnergyPj op_energy(FpuType unit, Volt v) const;

  /// Per-stage share of the op energy at supply `v`.
  [[nodiscard]] EnergyPj stage_energy(FpuType unit, Volt v) const;

  /// Energy of one ECU recovery for an error on `unit` at supply `v`.
  [[nodiscard]] EnergyPj recovery_energy(FpuType unit, Volt v) const;

  /// Total energy of one executed instruction, FPU supply at `v`.
  /// The memoization module's contributions (lookups, updates, static) are
  /// charged at the fixed nominal voltage regardless of `v`.
  [[nodiscard]] EnergyPj charge(const ExecutionRecord& rec, Volt v) const;

  /// Energy of the same instruction on the BASELINE architecture (no
  /// memoization module at all): full execution plus recovery whenever the
  /// instruction was flagged. Uses the record's timing_error bit — masked
  /// errors still cost a recovery on the baseline.
  [[nodiscard]] EnergyPj charge_baseline(const ExecutionRecord& rec,
                                         Volt v) const;

  /// Convenience: both charges at the nominal supply.
  [[nodiscard]] EnergyPj charge(const ExecutionRecord& rec) const {
    return charge(rec, params_.nominal_voltage);
  }
  [[nodiscard]] EnergyPj charge_baseline(const ExecutionRecord& rec) const {
    return charge_baseline(rec, params_.nominal_voltage);
  }

  /// Memoized and baseline energy of the events in `counts`, all on
  /// `unit`-type FPUs at supply `v`: Σ charge and Σ charge_baseline over
  /// the records they were counted from.
  [[nodiscard]] EnergyTotals energy(FpuType unit, const EnergyCounts& counts,
                                    Volt v) const;

 private:
  EnergyParams params_;
  VoltageScaling scaling_;
};

/// Running energy totals for an experiment.
struct EnergyTotals {
  EnergyPj memoized_pj = 0.0;
  EnergyPj baseline_pj = 0.0;

  /// Relative energy saving of the memoized architecture vs. the baseline.
  [[nodiscard]] double saving() const noexcept {
    return baseline_pj <= 0.0 ? 0.0 : 1.0 - memoized_pj / baseline_pj;
  }

  EnergyTotals& operator+=(const EnergyTotals& o) noexcept {
    memoized_pj += o.memoized_pj;
    baseline_pj += o.baseline_pj;
    return *this;
  }
};

} // namespace tmemo

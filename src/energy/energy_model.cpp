#include "energy/energy_model.hpp"

#include "common/require.hpp"

namespace tmemo {

EnergyModel::EnergyModel(const EnergyParams& params,
                         const VoltageScaling& scaling)
    : params_(params), scaling_(scaling) {
  for (double e : params_.fpu_op_energy_pj) {
    TM_REQUIRE(e > 0.0, "per-op energy must be positive");
  }
  TM_REQUIRE(params_.lut_lookup_pj >= 0.0 && params_.lut_update_pj >= 0.0,
             "LUT energies must be non-negative");
  TM_REQUIRE(params_.clock_gate_residual >= 0.0 &&
                 params_.clock_gate_residual <= 1.0,
             "clock-gate residual is a fraction in [0, 1]");
  TM_REQUIRE(params_.recovery_energy_factor >= 0.0,
             "recovery energy factor must be non-negative");
}

EnergyPj EnergyModel::op_energy(FpuType unit, Volt v) const {
  const double base =
      params_.fpu_op_energy_pj[static_cast<std::size_t>(unit)];
  return base * scaling_.energy_factor(v);
}

EnergyPj EnergyModel::stage_energy(FpuType unit, Volt v) const {
  return op_energy(unit, v) / static_cast<double>(fpu_latency_cycles(unit));
}

EnergyPj EnergyModel::recovery_energy(FpuType unit, Volt v) const {
  return params_.recovery_energy_factor * op_energy(unit, v);
}

EnergyPj EnergyModel::charge(const ExecutionRecord& rec, Volt v) const {
  const EnergyPj stage = stage_energy(rec.unit, v);
  EnergyPj total = 0.0;

  // Spatial memoization: comparator always, broadcast on reuse.
  total += params_.spatial_compare_pj *
           static_cast<double>(rec.spatial_compares);
  if (rec.spatial_reuse) total += params_.spatial_broadcast_pj;

  // FPU datapath: active stages at full energy, gated stages at residual.
  total += stage * static_cast<double>(rec.active_stage_cycles);
  total += stage * params_.clock_gate_residual *
           static_cast<double>(rec.gated_stage_cycles);

  // ECU recovery (only in the {0,1} state).
  if (rec.recovered) total += recovery_energy(rec.unit, v);

  // Memoization module — at the fixed nominal supply.
  if (rec.memo_enabled) {
    total += params_.lut_lookup_pj * static_cast<double>(rec.lut_lookups);
    total += params_.lut_update_pj * static_cast<double>(rec.lut_writes);
    total += params_.memo_static_pj_per_cycle *
             static_cast<double>(rec.latency_cycles);
  }
  return total;
}

EnergyPj EnergyModel::charge_baseline(const ExecutionRecord& rec,
                                      Volt v) const {
  // Baseline architecture: every instruction executes fully; every EDS flag
  // triggers the ECU recovery — including errors the memoized architecture
  // masked.
  EnergyPj total = op_energy(rec.unit, v);
  if (rec.timing_error) total += recovery_energy(rec.unit, v);
  return total;
}

EnergyTotals EnergyModel::energy(FpuType unit, const EnergyCounts& counts,
                                 Volt v) const {
  // The same terms as charge() and charge_baseline(), each multiplied by
  // its event count.
  const auto n = [](std::uint64_t events) {
    return static_cast<double>(events);
  };
  const EnergyPj stage = stage_energy(unit, v);
  const EnergyPj recovery = recovery_energy(unit, v);
  EnergyTotals t;
  t.memoized_pj =
      params_.spatial_compare_pj * n(counts.spatial_compares) +
      params_.spatial_broadcast_pj * n(counts.spatial_reuses) +
      stage * n(counts.active_stage_cycles) +
      stage * params_.clock_gate_residual * n(counts.gated_stage_cycles) +
      recovery * n(counts.recoveries) +
      params_.lut_lookup_pj * n(counts.lut_lookups) +
      params_.lut_update_pj * n(counts.lut_writes) +
      params_.memo_static_pj_per_cycle * n(counts.memo_latency_cycles);
  t.baseline_pj =
      op_energy(unit, v) * n(counts.ops) + recovery * n(counts.timing_errors);
  return t;
}

} // namespace tmemo

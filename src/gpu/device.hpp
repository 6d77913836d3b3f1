// The top-level GPGPU device model: compute units + ultra-thread
// dispatching + device-wide configuration of the temporal-memoization
// modules + energy/statistics aggregation.
//
// The device does not know about the kernel programming model; kernels are
// launched through the tm_kernel library (kernel/launch.hpp), which drives
// ComputeUnit::execute_wavefront_op and routes every ExecutionRecord into
// the device's energy accumulator.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "energy/energy_model.hpp"
#include "gpu/compute_unit.hpp"
#include "gpu/device_config.hpp"
#include "memo/lut.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

class GpuDevice;

/// Per-unit-type and overall energy accumulation. consume() only counts
/// each record's energy events per FPU type (EnergyCounts); total() and
/// unit() evaluate those counts once, for the memoized architecture and
/// for the baseline, so a single simulation still yields a paired
/// comparison with identical error draws. A supply change folds the counts
/// so far into float totals at the old supply (fold()).
///
/// Holds a pointer to its owning device and reads the energy model and the
/// live FPU supply through it; the device's move operations rebind the
/// pointer, so a moved device never leaves the accumulator referencing a
/// dead object. The compute units hold a pointer to the accumulator, rebound
/// the same way, and count records bound for it without a virtual call.
class EnergyAccumulator final : public ExecutionSink {
 public:
  explicit EnergyAccumulator(const GpuDevice* device) noexcept
      : device_(device) {}

  void consume(const ExecutionRecord& rec) override {
    pending_[static_cast<std::size_t>(rec.unit)].add(rec);
  }

  [[nodiscard]] EnergyTotals total(std::span<const FpuType> units) const {
    EnergyTotals t;
    for (FpuType u : units) t += unit(u);
    return t;
  }

  [[nodiscard]] EnergyTotals unit(FpuType u) const; // inline, below GpuDevice

  /// Adds the pending counts' energy at the device's current supply to the
  /// float totals and clears the counts.
  void fold();

  void reset() noexcept {
    pending_ = {};
    folded_ = {};
  }

  /// Re-points the accumulator at its owning device.
  void rebind(const GpuDevice* device) noexcept { device_ = device; }

 private:
  const GpuDevice* device_;
  std::array<EnergyCounts, kNumFpuTypes> pending_{};
  std::array<EnergyTotals, kNumFpuTypes> folded_{};
};

class GpuDevice {
 public:
  explicit GpuDevice(const DeviceConfig& config = DeviceConfig::radeon_hd5870(),
                     const EnergyModel& energy = EnergyModel{});

  // Moves rebind the energy accumulator (and the compute units' pointers
  // to it) at the new object; copying is not possible (stream cores own
  // their FPU instances exclusively).
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;
  GpuDevice(GpuDevice&& other) noexcept;
  GpuDevice& operator=(GpuDevice&& other) noexcept;

  [[nodiscard]] const DeviceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const EnergyModel& energy_model() const noexcept {
    return energy_;
  }

  // -- Timing / voltage environment ----------------------------------------

  /// Installs the timing-error model used by subsequent launches.
  void set_error_model(std::shared_ptr<const TimingErrorModel> model);
  [[nodiscard]] const TimingErrorModel& error_model() const noexcept {
    return *errors_;
  }

  /// FPU supply voltage used by the energy accumulator (the memoization
  /// module itself always stays at the nominal supply). Energy of the ops
  /// run so far stays at the supply they ran at.
  void set_fpu_supply(Volt v);
  [[nodiscard]] Volt fpu_supply() const noexcept { return supply_; }

  // -- Application-visible memoization configuration ------------------------
  // Broadcast to the memory-mapped registers of every FPU on the device,
  // the way a host runtime would program all modules before a kernel launch.
  // The device keeps this programming once (FpuProgramming) and applies each
  // change to the FPUs created so far; FPUs created later start from it.

  /// Exact matching constraint (error-intolerant kernels).
  void program_exact();
  /// Approximate matching with the given absolute Eq.-1 threshold.
  void program_threshold(float threshold);
  /// Approximate matching via the fraction-LSB masking vector derived from
  /// the threshold (the error-tolerant-application programming of §4.2).
  void program_threshold_as_mask(float threshold);
  void set_commutativity(bool on);
  /// Enables/disables the modules via their control register.
  void set_memo_enabled(bool on);
  /// Power-gates the modules entirely (clears LUT state when gating).
  void set_power_gated(bool gated);
  /// Preloads an entry into every LUT (compiler-directed warm start, §4.2).
  void preload_lut(const LutEntry& entry);
  /// Rebuilds all FPUs with a different LUT FIFO depth. The programming
  /// (registers, gating, preloads, spatial mode and constraint) and the
  /// telemetry sink stay; statistics and energy are reset as by
  /// reset_stats(), and the rebuilt FPUs restart their EDS streams.
  void set_lut_depth(int depth);
  /// Enables spatial memoization (cross-lane concurrent instruction reuse,
  /// reference [20]); composes with the temporal modules.
  void set_spatial_memoization(bool on);
  /// Per-unit-type spatial statistics summed over the device.
  [[nodiscard]] std::array<SpatialStats, kNumFpuTypes> spatial_stats() const;

  // -- Structure -------------------------------------------------------------

  [[nodiscard]] int compute_unit_count() const noexcept {
    return static_cast<int>(cus_.size());
  }
  [[nodiscard]] ComputeUnit& compute_unit(int i);

  /// The sink kernel launches must feed (the device's energy accumulator).
  [[nodiscard]] ExecutionSink& sink() noexcept { return accumulator_; }

  /// Attaches (nullptr detaches) a telemetry probe sink to every compute
  /// unit, stream core, FPU and ECU of the device. The sink must outlive
  /// the device or be detached first; it survives set_lut_depth rebuilds.
  void set_telemetry(telemetry::ProbeSink* sink);
  [[nodiscard]] telemetry::ProbeSink* telemetry_sink() const noexcept {
    return telemetry_;
  }

  /// Applies `fn` to the FPUs created so far, compute unit by compute unit.
  /// An FPU is created on its first issue (or by ComputeUnit::for_each_fpu);
  /// until then it holds nothing but the device programming.
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) {
    for (auto& cu : cus_) cu.for_each_created_fpu(fn);
  }
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) const {
    for (const auto& cu : cus_) cu.for_each_created_fpu(fn);
  }

  // -- Statistics ------------------------------------------------------------

  /// Aggregated execution statistics per FPU type, summed over the device.
  [[nodiscard]] std::array<FpuStats, kNumFpuTypes> unit_stats() const;

  /// Sum of the per-type statistics over `units`.
  [[nodiscard]] FpuStats total_stats(std::span<const FpuType> units) const;

  /// Hit rate over all instructions of all unit types (the paper's
  /// "weighted average hit rate of the activated FPUs").
  [[nodiscard]] double weighted_hit_rate() const;

  /// Energy totals over `units` (defaults: the paper's six reported types).
  [[nodiscard]] EnergyTotals energy(
      std::span<const FpuType> units = kReportedFpuTypes) const {
    return accumulator_.total(units);
  }
  [[nodiscard]] EnergyTotals unit_energy(FpuType u) const {
    return accumulator_.unit(u);
  }

  /// Clears all statistics and energy accumulation; keeps configuration
  /// and LUT contents.
  void reset_stats();

 private:
  /// Points the accumulator at this device and the compute units at the
  /// accumulator (construction and moves).
  void bind_accumulator() noexcept;

  /// Applies `write` to the register template and to every created FPU.
  template <typename Fn>
  void program_registers(const Fn& write);

  DeviceConfig config_;
  EnergyModel energy_;
  Volt supply_;
  std::shared_ptr<const TimingErrorModel> errors_;
  std::shared_ptr<FpuProgramming> programming_;
  std::vector<ComputeUnit> cus_;
  EnergyAccumulator accumulator_;
  telemetry::ProbeSink* telemetry_ = nullptr;
};

inline EnergyTotals EnergyAccumulator::unit(FpuType u) const {
  const auto i = static_cast<std::size_t>(u);
  EnergyTotals t = folded_[i];
  t += device_->energy_model().energy(u, pending_[i], device_->fpu_supply());
  return t;
}

inline void EnergyAccumulator::fold() {
  for (FpuType u : kAllFpuTypes) {
    const auto i = static_cast<std::size_t>(u);
    folded_[i] = unit(u);
    pending_[i] = {};
  }
}

} // namespace tmemo

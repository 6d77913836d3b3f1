#include "gpu/device.hpp"

#include "common/bits.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace tmemo {

GpuDevice::GpuDevice(const DeviceConfig& config, const EnergyModel& energy)
    : config_(config),
      energy_(energy),
      supply_(energy.params().nominal_voltage),
      errors_(std::make_shared<NoErrorModel>()),
      accumulator_(this) {
  config_.validate();
  programming_ = std::make_shared<FpuProgramming>(config_.fpu);
  cus_.reserve(static_cast<std::size_t>(config_.compute_units));
  for (int cu = 0; cu < config_.compute_units; ++cu) {
    cus_.emplace_back(config_,
                      mix_seed(config_.seed, static_cast<std::uint64_t>(cu)),
                      programming_);
  }
  bind_accumulator();
}

GpuDevice::GpuDevice(GpuDevice&& other) noexcept
    : config_(std::move(other.config_)),
      energy_(std::move(other.energy_)),
      supply_(other.supply_),
      errors_(std::move(other.errors_)),
      programming_(std::move(other.programming_)),
      cus_(std::move(other.cus_)),
      accumulator_(std::move(other.accumulator_)),
      telemetry_(other.telemetry_) {
  bind_accumulator();
}

GpuDevice& GpuDevice::operator=(GpuDevice&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    energy_ = std::move(other.energy_);
    supply_ = other.supply_;
    errors_ = std::move(other.errors_);
    programming_ = std::move(other.programming_);
    cus_ = std::move(other.cus_);
    accumulator_ = std::move(other.accumulator_);
    telemetry_ = other.telemetry_;
    bind_accumulator();
  }
  return *this;
}

void GpuDevice::bind_accumulator() noexcept {
  accumulator_.rebind(this);
  for (auto& cu : cus_) cu.set_energy_accumulator(&accumulator_);
}

void GpuDevice::set_error_model(
    std::shared_ptr<const TimingErrorModel> model) {
  TM_REQUIRE(model != nullptr, "error model must not be null");
  errors_ = std::move(model);
}

void GpuDevice::set_fpu_supply(Volt v) {
  TM_REQUIRE(v > 0.0, "supply voltage must be positive");
  accumulator_.fold();
  supply_ = v;
}

template <typename Fn>
void GpuDevice::program_registers(const Fn& write) {
  write(programming_->registers);
  for_each_created_fpu([&](ResilientFpu& f) { write(f.registers()); });
}

void GpuDevice::program_exact() {
  program_registers([](MemoRegisterFile& r) { r.program_exact(); });
  for (auto& cu : cus_) cu.set_spatial_constraint(MatchConstraint::exact());
}

void GpuDevice::program_threshold(float threshold) {
  program_registers(
      [=](MemoRegisterFile& r) { r.program_threshold(threshold); });
  for (auto& cu : cus_) {
    cu.set_spatial_constraint(MatchConstraint::approximate(threshold));
  }
}

void GpuDevice::program_threshold_as_mask(float threshold) {
  program_registers(
      [=](MemoRegisterFile& r) { r.program_threshold_as_mask(threshold); });
  for (auto& cu : cus_) {
    cu.set_spatial_constraint(MatchConstraint::masked(
        mask_ignoring_fraction_lsbs(fraction_lsbs_for_threshold(threshold))));
  }
}

void GpuDevice::set_commutativity(bool on) {
  program_registers([=](MemoRegisterFile& r) { r.set_commutativity(on); });
}

void GpuDevice::set_memo_enabled(bool on) {
  program_registers([=](MemoRegisterFile& r) { r.set_enabled(on); });
}

void GpuDevice::set_power_gated(bool gated) {
  programming_->set_power_gated(gated);
  for_each_created_fpu([=](ResilientFpu& f) { f.set_power_gated(gated); });
}

void GpuDevice::preload_lut(const LutEntry& entry) {
  programming_->preloads.push_back(entry);
  for_each_created_fpu([&](ResilientFpu& f) {
    if (opcode_unit(entry.opcode) == f.unit()) f.lut().preload(entry);
  });
}

void GpuDevice::set_lut_depth(int depth) {
  DeviceConfig config = config_;
  config.fpu.lut_depth = depth;
  config.validate();
  config_ = config;
  programming_->config.lut_depth = depth;
  for (auto& cu : cus_) cu.drop_fpus();
  reset_stats();
}

void GpuDevice::set_telemetry(telemetry::ProbeSink* sink) {
  telemetry_ = sink;
  for (std::size_t cu = 0; cu < cus_.size(); ++cu) {
    cus_[cu].set_probe(sink, static_cast<std::uint32_t>(cu));
  }
}

ComputeUnit& GpuDevice::compute_unit(int i) {
  TM_REQUIRE(i >= 0 && i < compute_unit_count(), "compute-unit index range");
  return cus_[static_cast<std::size_t>(i)];
}

std::array<FpuStats, kNumFpuTypes> GpuDevice::unit_stats() const {
  std::array<FpuStats, kNumFpuTypes> out{};
  for_each_created_fpu([&](const ResilientFpu& f) {
    out[static_cast<std::size_t>(f.unit())] += f.stats();
  });
  return out;
}

FpuStats GpuDevice::total_stats(std::span<const FpuType> units) const {
  const auto per_unit = unit_stats();
  FpuStats total;
  for (FpuType u : units) total += per_unit[static_cast<std::size_t>(u)];
  return total;
}

double GpuDevice::weighted_hit_rate() const {
  const FpuStats total = total_stats(kAllFpuTypes);
  return total.hit_rate();
}

void GpuDevice::set_spatial_memoization(bool on) {
  for (auto& cu : cus_) cu.set_spatial_memoization(on);
}

std::array<SpatialStats, kNumFpuTypes> GpuDevice::spatial_stats() const {
  std::array<SpatialStats, kNumFpuTypes> out{};
  for (const auto& cu : cus_) {
    const auto& per_cu = cu.spatial_stats();
    for (int u = 0; u < kNumFpuTypes; ++u) {
      out[static_cast<std::size_t>(u)] += per_cu[static_cast<std::size_t>(u)];
    }
  }
  return out;
}

void GpuDevice::reset_stats() {
  for_each_created_fpu([](ResilientFpu& f) { f.reset_stats(); });
  for (auto& cu : cus_) cu.reset_spatial_stats();
  accumulator_.reset();
}

} // namespace tmemo

#include "gpu/device.hpp"

#include "common/bits.hpp"
#include "common/require.hpp"

namespace tmemo {

namespace {
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
} // namespace

GpuDevice::GpuDevice(const DeviceConfig& config, const EnergyModel& energy)
    : config_(config),
      energy_(energy),
      supply_(energy.params().nominal_voltage),
      errors_(std::make_shared<NoErrorModel>()),
      accumulator_(this) {
  config_.validate();
  cus_.reserve(static_cast<std::size_t>(config_.compute_units));
  for (int cu = 0; cu < config_.compute_units; ++cu) {
    cus_.emplace_back(config_,
                      mix_seed(config_.seed, static_cast<std::uint64_t>(cu)));
  }
}

GpuDevice::GpuDevice(GpuDevice&& other) noexcept
    : config_(std::move(other.config_)),
      energy_(std::move(other.energy_)),
      supply_(other.supply_),
      errors_(std::move(other.errors_)),
      cus_(std::move(other.cus_)),
      accumulator_(std::move(other.accumulator_)),
      telemetry_(other.telemetry_) {
  accumulator_.rebind(this);
}

GpuDevice& GpuDevice::operator=(GpuDevice&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    energy_ = std::move(other.energy_);
    supply_ = other.supply_;
    errors_ = std::move(other.errors_);
    cus_ = std::move(other.cus_);
    accumulator_ = std::move(other.accumulator_);
    telemetry_ = other.telemetry_;
    accumulator_.rebind(this);
  }
  return *this;
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

void GpuDevice::program_exact() {
  for (auto& cu : cus_) {
    cu.for_each_fpu([](ResilientFpu& f) { f.registers().program_exact(); });
    cu.set_spatial_constraint(MatchConstraint::exact());
  }
}

void GpuDevice::program_threshold(float threshold) {
  for (auto& cu : cus_) {
    cu.for_each_fpu(
        [=](ResilientFpu& f) { f.registers().program_threshold(threshold); });
    cu.set_spatial_constraint(MatchConstraint::approximate(threshold));
  }
}

void GpuDevice::program_threshold_as_mask(float threshold) {
  for (auto& cu : cus_) {
    cu.for_each_fpu([=](ResilientFpu& f) {
      f.registers().program_threshold_as_mask(threshold);
    });
    cu.set_spatial_constraint(MatchConstraint::masked(
        mask_ignoring_fraction_lsbs(fraction_lsbs_for_threshold(threshold))));
  }
}

void GpuDevice::set_commutativity(bool on) {
  for (auto& cu : cus_) {
    cu.for_each_fpu(
        [=](ResilientFpu& f) { f.registers().set_commutativity(on); });
  }
}

void GpuDevice::set_memo_enabled(bool on) {
  for (auto& cu : cus_) {
    cu.for_each_fpu([=](ResilientFpu& f) { f.registers().set_enabled(on); });
  }
}

void GpuDevice::set_power_gated(bool gated) {
  for (auto& cu : cus_) {
    cu.for_each_fpu([=](ResilientFpu& f) { f.set_power_gated(gated); });
  }
}

void GpuDevice::preload_lut(const LutEntry& entry) {
  for (auto& cu : cus_) {
    cu.for_each_fpu([&](ResilientFpu& f) {
      if (opcode_unit(entry.opcode) == f.unit()) f.lut().preload(entry);
    });
  }
}

void GpuDevice::set_lut_depth(int depth) {
  config_.fpu.lut_depth = depth;
  cus_.clear();
  for (int cu = 0; cu < config_.compute_units; ++cu) {
    cus_.emplace_back(config_,
                      mix_seed(config_.seed, static_cast<std::uint64_t>(cu)));
  }
  accumulator_.reset();
  set_telemetry(telemetry_); // the rebuilt FPUs need their probes back
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
  for (const auto& cu : cus_) {
    cu.for_each_fpu([&](const ResilientFpu& f) {
      out[static_cast<std::size_t>(f.unit())] += f.stats();
    });
  }
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
  for (auto& cu : cus_) {
    cu.for_each_fpu([](ResilientFpu& f) { f.reset_stats(); });
    cu.reset_spatial_stats();
  }
  accumulator_.reset();
}

} // namespace tmemo

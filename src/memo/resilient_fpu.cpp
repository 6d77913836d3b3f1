#include "memo/resilient_fpu.hpp"

namespace tmemo {

ResilientFpu::ResilientFpu(FpuType unit, const ResilientFpuConfig& config)
    : unit_(unit),
      depth_(fpu_latency_cycles(unit)),
      lut_(config.lut_depth),
      eds_(unit, config.eds_seed, config.inject.eds),
      ecu_(config.recovery, config.inject.watchdog),
      inject_(config.inject),
      injector_(config.inject.lut,
                inject::derive_fault_seed(config.eds_seed,
                                          static_cast<std::uint64_t>(unit))) {
  lut_.set_parity_protected(config.inject.lut.parity);
}

void ResilientFpu::reset_stats() {
  stats_ = {};
  lut_.reset_stats();
  ecu_.reset_stats();
}

void ResilientFpu::set_power_gated(bool gated) {
  if (gated && !power_gated_) lut_.clear();
  power_gated_ = gated;
}

} // namespace tmemo

#include "gpu/stream_core.hpp"

#include "common/require.hpp"
#include "common/rng.hpp"

namespace tmemo {

namespace {
bool fpu_exists(int pe, FpuType unit) noexcept {
  return fpu_type_is_transcendental(unit) == (pe == kPeT);
}
} // namespace

void FpuProgramming::apply_to(ResilientFpu& f) const {
  f.registers() = registers;
  f.set_power_gated(power_gated);
  for (const LutEntry& e : preloads) {
    if (opcode_unit(e.opcode) == f.unit()) f.lut().preload(e);
  }
}

StreamCore::StreamCore(const ResilientFpuConfig& fpu_config,
                       std::uint64_t seed)
    : StreamCore(std::make_shared<const FpuProgramming>(fpu_config), seed) {}

StreamCore::StreamCore(std::shared_ptr<const FpuProgramming> programming,
                       std::uint64_t seed)
    : programming_(std::move(programming)), seed_(seed) {}

void StreamCore::create(int pe, FpuType unit) {
  TM_ASSERT(fpu_exists(pe, unit));
  ResilientFpuConfig cfg = programming_->config;
  cfg.eds_seed = mix_seed(seed_, static_cast<std::uint64_t>(pe) * 64u +
                                     static_cast<std::uint64_t>(unit));
  auto fpu = std::make_unique<ResilientFpu>(unit, cfg);
  programming_->apply_to(*fpu);
  fpu->set_probe(probe_, probe_cu_, probe_core_);
  fpus_[static_cast<std::size_t>(pe)][static_cast<std::size_t>(unit)] =
      std::move(fpu);
}

void StreamCore::for_each_fpu(const std::function<void(ResilientFpu&)>& fn) {
  for (int pe = 0; pe < kPeCount; ++pe) {
    for (FpuType unit : kAllFpuTypes) {
      if (fpu_exists(pe, unit)) fn(fpu(pe, unit));
    }
  }
}

void StreamCore::set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                           std::uint16_t core) {
  probe_ = sink;
  probe_cu_ = cu;
  probe_core_ = core;
  for_each_created_fpu([=](ResilientFpu& f) { f.set_probe(sink, cu, core); });
}

ResilientFpu& StreamCore::fpu(int pe, FpuType unit) {
  TM_REQUIRE(pe >= 0 && pe < kPeCount, "PE index out of range");
  TM_REQUIRE(fpu_exists(pe, unit), "unit does not exist on this PE");
  return steered_fpu(pe, unit);
}

} // namespace tmemo

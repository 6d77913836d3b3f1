// One Evergreen stream core (SC): five processing elements (X, Y, Z, W, T)
// forming the ALU engine, each with a pool of pipelined FP units. Every FPU
// instance carries its own EDS sensors, ECU and temporal-memoization LUT —
// the paper's "scalable and independent recovery of individual FPUs".
//
// VLIW slot steering is static, as a compiler would do it: transcendental
// opcodes go to the T element; all other opcodes go to X/Y/Z/W selected by
// the static instruction index modulo four. Static steering keeps the
// operand stream of one static instruction on one physical FPU across all
// work-items of a wavefront, which is precisely the "congested temporal value
// locality" the memoization LUT exploits (paper §4.1).
//
// FPUs are created on first use, not with the core: a kernel touches a
// handful of the 24 per core, and a device has 320 cores. A created FPU gets
// the seed it would have had at construction and is brought to the shared
// FpuProgramming, so it cannot be told apart from one that existed all along.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "fpu/instruction.hpp"
#include "gpu/device_config.hpp"
#include "memo/resilient_fpu.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Device-wide FPU programming: the state every FPU of a device holds apart
/// from its own execution history. Its owner applies each change here and to
/// the FPUs that already exist; apply_to() brings a new FPU up to date.
struct FpuProgramming {
  explicit FpuProgramming(const ResilientFpuConfig& fpu_config)
      : config(fpu_config) {}

  /// Construction config; eds_seed is replaced per FPU.
  ResilientFpuConfig config;
  /// Memory-mapped register template (matching constraint, control bits).
  MemoRegisterFile registers;
  bool power_gated = false;
  /// LUT preloads since the last gating, in issue order, all unit types.
  std::vector<LutEntry> preloads;

  /// Gates or un-gates; gating clears the LUTs and with them the preloads.
  void set_power_gated(bool gated) {
    if (gated && !power_gated) preloads.clear();
    power_gated = gated;
  }

  /// Registers, then gating, then the preloads of `f`'s unit type: gating
  /// after the preloads would clear them.
  void apply_to(ResilientFpu& f) const;
};

class StreamCore {
 public:
  /// `seed` individualizes the EDS streams of this core's FPUs.
  StreamCore(const ResilientFpuConfig& fpu_config, std::uint64_t seed);
  /// A core whose FPUs follow `programming`, which its owner keeps current.
  StreamCore(std::shared_ptr<const FpuProgramming> programming,
             std::uint64_t seed);

  /// Routes one dynamic instruction to the proper PE/FPU and executes it.
  ExecutionRecord execute(const FpInstruction& ins,
                          const TimingErrorModel& errors) {
    const FpuType unit = ins.unit();
    return steered_fpu(vliw_slot(unit, ins.static_id), unit)
        .execute(ins, errors);
  }

  /// The FPU of `unit` on PE `pe`, created on first use; `pe` must be the
  /// vliw_slot() of an instruction of that unit. A compute unit resolves it
  /// once per wavefront op.
  ResilientFpu& steered_fpu(int pe, FpuType unit) {
    auto& fpu = fpus_[static_cast<std::size_t>(pe)]
                     [static_cast<std::size_t>(unit)];
    if (!fpu) create(pe, unit);
    return *fpu;
  }

  /// The PE slot a static instruction is steered to.
  [[nodiscard]] static int vliw_slot(FpuType unit,
                                     StaticInstrId static_id) noexcept {
    if (fpu_type_is_transcendental(unit)) return kPeT;
    return static_cast<int>(static_id % 4u);
  }

  /// Applies `fn` to every FPU instance of this core, creating the ones
  /// not used yet.
  void for_each_fpu(const std::function<void(ResilientFpu&)>& fn);

  /// Applies `fn` to the FPUs created so far (the others hold no state
  /// beyond the programming).
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) {
    for (auto& pe : fpus_) {
      for (auto& fpu : pe) {
        if (fpu) fn(*fpu);
      }
    }
  }
  template <typename Fn>
  void for_each_created_fpu(Fn&& fn) const {
    for (const auto& pe : fpus_) {
      for (const auto& fpu : pe) {
        if (fpu) fn(static_cast<const ResilientFpu&>(*fpu));
      }
    }
  }

  /// Destroys every created FPU; the next use rebuilds it from the
  /// programming (a changed LUT depth takes effect this way).
  void drop_fpus() noexcept { fpus_ = {}; }

  /// Direct access for tests: the FPU of `unit` on PE `pe`.
  [[nodiscard]] ResilientFpu& fpu(int pe, FpuType unit);

  /// Attaches (nullptr detaches) a telemetry sink to every FPU of this
  /// core; `cu`/`core` give the core's device coordinates.
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                 std::uint16_t core);

 private:
  void create(int pe, FpuType unit);

  std::shared_ptr<const FpuProgramming> programming_;
  std::uint64_t seed_;
  telemetry::ProbeSink* probe_ = nullptr;
  std::uint32_t probe_cu_ = 0;
  std::uint16_t probe_core_ = 0;
  // pe -> unit -> FPU instance, null until first use. Transcendental units
  // only exist on T; non-transcendental units are replicated on X/Y/Z/W.
  std::array<std::array<std::unique_ptr<ResilientFpu>, kNumFpuTypes>, kPeCount>
      fpus_;
};

} // namespace tmemo

// Shape of the modeled GPGPU device.
//
// Defaults mirror the AMD Radeon HD 5870 (Evergreen) described in §3 of the
// paper: 20 compute units, 16 stream cores per compute unit, five
// processing elements (X, Y, Z, W, T) per stream core, 64-work-item
// wavefronts executed as four time-multiplexed sub-wavefronts of 16.
#pragma once

#include <cstdint>

#include "common/require.hpp"
#include "memo/resilient_fpu.hpp"

namespace tmemo {

/// Number of VLIW processing elements per stream core (X, Y, Z, W, T).
inline constexpr int kPeCount = 5;
/// Index of the transcendental PE (T).
inline constexpr int kPeT = 4;

struct DeviceConfig {
  int compute_units = 20;
  int stream_cores_per_cu = 16;
  int wavefront_size = 64;
  /// Per-FPU configuration (LUT depth, recovery policy).
  ResilientFpuConfig fpu;
  /// Base seed from which every FPU instance derives its EDS stream.
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] int subwavefronts() const noexcept {
    return wavefront_size / stream_cores_per_cu;
  }

  void validate() const {
    TM_REQUIRE(compute_units >= 1, "need at least one compute unit");
    TM_REQUIRE(stream_cores_per_cu >= 1, "need at least one stream core");
    TM_REQUIRE(wavefront_size >= 1 &&
                   wavefront_size % stream_cores_per_cu == 0,
               "wavefront size must be a multiple of the stream-core count");
    TM_REQUIRE(wavefront_size <= 64,
               "lane masks are modeled with 64-bit words");
    TM_REQUIRE(fpu.lut_depth >= 1 && fpu.lut_depth <= 4096,
               "LUT depth out of range");
  }

  /// The paper's target part: Radeon HD 5870.
  [[nodiscard]] static DeviceConfig radeon_hd5870() { return DeviceConfig{}; }

  /// A single-compute-unit device for unit tests and small studies.
  [[nodiscard]] static DeviceConfig single_cu() {
    DeviceConfig c;
    c.compute_units = 1;
    return c;
  }
};

} // namespace tmemo

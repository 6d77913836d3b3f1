// Host-speed probe: a fixed CPU workload frozen in the benchmark itself.
//
// The cores of the host this benchmark was written on are shared with
// other tenants, and their speed drifts: a fixed simulation job ran anywhere
// from 30 ms to 62 ms per 10-second window. Register-bound and memory-bound
// loops slowed far less than the simulator, so they cannot correct for it.
// This probe does the simulator's kind of work instead: it builds a device
// worth of heap-allocated FPU objects with FIFO deques (20 compute units x
// 720 FPUs), then replays the checked-in Sobel operand stream through them
// with a virtual call, a random error draw, a masked operand match and an
// energy sum per op. In a single-threaded test over the same windows, job
// time divided by probe time spread by 5 % where job time alone spread by
// 35 %. The probe lives in the benchmark, so no
// change to the simulator can change it. Timing it right before and after
// a repetition, on as many threads as the repetition keeps busy, gives the
// host's speed during that repetition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  /// Probe time at the reference host speed. A host time measured while
  /// the probe takes t seconds is reported as time * kReferenceSeconds / t.
  static constexpr double kReferenceSeconds = 0.020;

  /// Loads the operand stream from a TMTR trace.
  explicit HostSpeedProbe(const std::string& trace_path);

  /// Runs the probe once on each of `threads` threads at the same time, as
  /// many as a repetition keeps busy; returns the mean of their times in
  /// seconds.
  [[nodiscard]] double measure(int threads) const;

 private:
  struct Op {
    std::uint16_t cu = 0;
    std::uint16_t fpu = 0;
    std::uint8_t opcode = 0;
    float a = 0.0f;
    float b = 0.0f;
  };
  [[nodiscard]] double run_once() const;

  std::vector<Op> ops_;
};

} // namespace perfbench

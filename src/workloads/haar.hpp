// One-dimensional Haar discrete wavelet transform (DwtHaar1D).
//
// The full multi-level decomposition of a length-n signal: at every level,
// work-item i combines the adjacent pair (x[2i], x[2i+1]) into an
// approximation a = (x0 + x1)/sqrt(2) and a detail d = (x0 - x1)/sqrt(2).
// Levels run host-side; each level is one NDRange launch, as in the SDK
// sample. Exercises the ADD and MUL units.
//
// Table 1: input parameter 1024, threshold 0.046 (small numerical errors
// are still accepted by the SDK host test).
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace tmemo {

/// Runs the full DWT on `signal` (length must be a power of two); returns
/// the coefficient array (approximation coefficient first).
[[nodiscard]] std::vector<float> haar_on_device(GpuDevice& device,
                                                const std::vector<float>& signal);
[[nodiscard]] std::vector<float> haar_reference(const std::vector<float>& signal);

class HaarWorkload final : public Workload {
 public:
  /// `length` must be a power of two; the signal is a deterministic
  /// pseudo-random sequence in [0, 1) as produced by the SDK host.
  explicit HaarWorkload(std::size_t length, std::uint64_t seed = 1234);

  [[nodiscard]] std::string_view name() const override { return "Haar"; }
  [[nodiscard]] std::string input_parameter() const override {
    return std::to_string(signal_.size());
  }
  [[nodiscard]] float table1_threshold() const override { return 0.046f; }
  /// SDK-style normalized-RMS tolerance.
  [[nodiscard]] double verify_tolerance() const override { return 0.05; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

 private:
  std::vector<float> signal_;
};

} // namespace tmemo

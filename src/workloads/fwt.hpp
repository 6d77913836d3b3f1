// Fast Walsh(-Hadamard) transform (error-intolerant class, exact matching).
//
// log2(n) in-place butterfly passes; each pass launches n/2 work-items that
// combine a pair (a, b) into (a + b, a - b). Exercises only the ADD unit —
// a useful stress case for the memoization LUT because random inputs give
// it little value locality (the paper sets threshold = 0.0 for FWT).
//
// Table 1: input parameter 1000000 (rounded up to the next power of two by
// the SDK host), threshold 0.0.
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace tmemo {

/// In-place FWT of `signal` (length must be a power of two) on the device.
[[nodiscard]] std::vector<float> fwt_on_device(GpuDevice& device,
                                               const std::vector<float>& signal);
[[nodiscard]] std::vector<float> fwt_reference(const std::vector<float>& signal);

class FwtWorkload final : public Workload {
 public:
  /// `length` is rounded up to the next power of two (SDK behaviour for
  /// the 1000000 parameter).
  explicit FwtWorkload(std::size_t length, std::uint64_t seed = 55);

  [[nodiscard]] std::string_view name() const override { return "FWT"; }
  [[nodiscard]] std::string input_parameter() const override {
    return std::to_string(requested_);
  }
  [[nodiscard]] float table1_threshold() const override { return 0.0f; }
  /// Exact matching: outputs must be bit-identical to the host reference.
  [[nodiscard]] double verify_tolerance() const override { return 0.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

 private:
  std::size_t requested_;
  std::vector<float> signal_;
};

} // namespace tmemo

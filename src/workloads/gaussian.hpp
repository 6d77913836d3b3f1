// 3x3 Gaussian smoothing filter (error-tolerant class).
//
//   kernel = 1/16 * | 1 2 1 |
//                   | 2 4 2 |
//                   | 1 2 1 |
//
// The DSL lowering is a MULADD accumulation chain followed by a RECIP-based
// normalization and FP2INT quantization, exercising the ADD, MUL, MULADD,
// RECIP and FP2INT units (the unit mix of the paper's Fig. 7).
#pragma once

#include "img/image.hpp"
#include "kernel/launch.hpp"
#include "workloads/workload.hpp"

namespace tmemo {

[[nodiscard]] Image gaussian_on_device(GpuDevice& device, const Image& input);
[[nodiscard]] Image gaussian_reference(const Image& input);

class GaussianWorkload final : public Workload {
 public:
  explicit GaussianWorkload(Image input, std::string input_label);

  [[nodiscard]] std::string_view name() const override { return "Gaussian"; }
  [[nodiscard]] std::string input_parameter() const override;
  [[nodiscard]] float table1_threshold() const override { return 0.8f; }
  [[nodiscard]] bool error_tolerant() const override { return true; }
  [[nodiscard]] double verify_tolerance() const override { return 1.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

  [[nodiscard]] const Image& input() const noexcept { return input_; }

 private:
  Image input_;
  std::string label_;
};

} // namespace tmemo

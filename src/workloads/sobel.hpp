// Sobel edge-detection filter (error-tolerant class).
//
// Per-pixel 3x3 gradient operator:
//   Gx = (p02 + 2 p12 + p22) - (p00 + 2 p10 + p20)
//   Gy = (p20 + 2 p21 + p22) - (p00 + 2 p01 + p02)
//   out = round( sqrt(Gx^2 + Gy^2) / 2 )
//
// The DSL lowering exercises the ADD, MULADD, MUL, SQRT and FP2INT units —
// the unit mix of the paper's Fig. 6.
#pragma once

#include "img/image.hpp"
#include "kernel/launch.hpp"
#include "workloads/workload.hpp"

namespace tmemo {

/// Runs the Sobel kernel over `input` on `device`; returns the committed
/// (possibly approximated) output image.
[[nodiscard]] Image sobel_on_device(GpuDevice& device, const Image& input);

/// Host golden reference.
[[nodiscard]] Image sobel_reference(const Image& input);

class SobelWorkload final : public Workload {
 public:
  /// `input` is typically make_face_image() or make_book_image().
  explicit SobelWorkload(Image input, std::string input_label);

  [[nodiscard]] std::string_view name() const override { return "Sobel"; }
  [[nodiscard]] std::string input_parameter() const override;
  [[nodiscard]] float table1_threshold() const override { return 1.0f; }
  [[nodiscard]] bool error_tolerant() const override { return true; }
  /// Image-class verification is PSNR-based; the absolute tolerance is only
  /// used for the exact-matching regression check.
  [[nodiscard]] double verify_tolerance() const override { return 1.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

  [[nodiscard]] const Image& input() const noexcept { return input_; }

 private:
  Image input_;
  std::string label_;
};

} // namespace tmemo

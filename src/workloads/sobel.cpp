#include "workloads/sobel.hpp"

#include <cmath>

#include "img/image.hpp"

namespace tmemo {

namespace {

/// Gathers the 3x3 neighborhood pixel (dx, dy) for every lane. Work-item
/// gid maps to pixel (gid % width, gid / width); borders are clamped.
LaneVec gather_neighbor(const WavefrontCtx& wf, const Image& img, int dx,
                        int dy) {
  return wf.gather(img.pixels(), [&](int /*lane*/, WorkItemId gid) {
    const int w = img.width();
    const int x = static_cast<int>(gid % static_cast<WorkItemId>(w));
    const int y = static_cast<int>(gid / static_cast<WorkItemId>(w));
    const int cx = std::clamp(x + dx, 0, img.width() - 1);
    const int cy = std::clamp(y + dy, 0, img.height() - 1);
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(cx);
  });
}

} // namespace

Image sobel_on_device(GpuDevice& device, const Image& input) {
  Image out(input.width(), input.height());
  const std::size_t pixels = input.size();

  launch(device, pixels, [&](WavefrontCtx& wf) {
    const LaneVec p00 = gather_neighbor(wf, input, -1, -1);
    const LaneVec p01 = gather_neighbor(wf, input, 0, -1);
    const LaneVec p02 = gather_neighbor(wf, input, 1, -1);
    const LaneVec p10 = gather_neighbor(wf, input, -1, 0);
    const LaneVec p12 = gather_neighbor(wf, input, 1, 0);
    const LaneVec p20 = gather_neighbor(wf, input, -1, 1);
    const LaneVec p21 = gather_neighbor(wf, input, 0, 1);
    const LaneVec p22 = gather_neighbor(wf, input, 1, 1);
    const LaneVec two = wf.splat(2.0f);

    // Gx = (p02 - p00) + 2*(p12 - p10) + (p22 - p20)
    LaneVec gx = wf.add(wf.sub(p02, p00), wf.sub(p22, p20));
    gx = wf.muladd(two, wf.sub(p12, p10), gx);
    // Gy = (p20 - p00) + 2*(p21 - p01) + (p22 - p02)
    LaneVec gy = wf.add(wf.sub(p20, p00), wf.sub(p22, p02));
    gy = wf.muladd(two, wf.sub(p21, p01), gy);

    // magnitude / 2, quantized to a gray level.
    const LaneVec mag2 = wf.muladd(gx, gx, wf.mul(gy, gy));
    const LaneVec mag = wf.mul(wf.sqrt(mag2), wf.splat(0.5f));
    const LaneVec q = wf.fp2int(wf.min(mag, wf.splat(255.0f)));

    wf.scatter(out.pixels(), q, [&](int /*lane*/, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    });
  });
  return out;
}

Image sobel_reference(const Image& input) {
  Image out(input.width(), input.height());
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      const auto p = [&](int dx, int dy) {
        return input.at_clamped(x + dx, y + dy);
      };
      // Mirror the DSL lowering exactly (fmaf where the kernel uses MULADD)
      // so an exact-matching, error-free device run is bit-identical.
      float gx = (p(1, -1) - p(-1, -1)) + (p(1, 1) - p(-1, 1));
      gx = ::fmaf(2.0f, p(1, 0) - p(-1, 0), gx);
      float gy = (p(-1, 1) - p(-1, -1)) + (p(1, 1) - p(1, -1));
      gy = ::fmaf(2.0f, p(0, 1) - p(0, -1), gy);
      const float mag2 = ::fmaf(gx, gx, gy * gy);
      const float mag = ::sqrtf(mag2) * 0.5f;
      const float clamped = ::fminf(mag, 255.0f);
      out.at(x, y) = static_cast<float>(static_cast<int>(
          ::fminf(::fmaxf(clamped, -2147483648.0f), 2147483520.0f)));
    }
  }
  return out;
}

SobelWorkload::SobelWorkload(Image input, std::string input_label)
    : input_(std::move(input)), label_(std::move(input_label)) {}

std::string SobelWorkload::input_parameter() const {
  return label_ + " (" + std::to_string(input_.width()) + "x" +
         std::to_string(input_.height()) + ")";
}

WorkloadResult SobelWorkload::run(GpuDevice& device) const {
  const Image got = sobel_on_device(device, input_);
  const Image golden = sobel_reference(input_);

  WorkloadResult res;
  res.output_values = got.size();
  double sum = 0.0;
  for (int y = 0; y < got.height(); ++y) {
    for (int x = 0; x < got.width(); ++x) {
      const double d = std::fabs(got.at(x, y) - golden.at(x, y));
      sum += d;
      if (d > res.max_abs_error) res.max_abs_error = d;
    }
  }
  res.mean_abs_error =
      got.size() == 0 ? 0.0 : sum / static_cast<double>(got.size());
  // Error-tolerant class: acceptable when PSNR >= 30 dB (paper §4.1).
  res.passed = psnr(golden, got) >= 30.0;
  return res;
}

std::uint64_t SobelWorkload::fp_op_count() const {
  // Per pixel: Gx and Gy take 5 ops each (3 SUB, ADD, MULADD), the
  // magnitude 4 (MUL, MULADD, SQRT, MUL), the quantization 2 (MIN, FP2INT).
  return 16 * static_cast<std::uint64_t>(input_.size());
}

} // namespace tmemo

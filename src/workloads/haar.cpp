#include "workloads/haar.hpp"

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "kernel/launch.hpp"

namespace tmemo {

namespace {
constexpr float kInvSqrt2 = 0.70710678118654752440f;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }
} // namespace

std::vector<float> haar_on_device(GpuDevice& device,
                                  const std::vector<float>& signal) {
  TM_REQUIRE(is_pow2(signal.size()) && signal.size() >= 2,
             "signal length must be a power of two >= 2");
  std::vector<float> in = signal;
  std::vector<float> out(signal.size());

  for (std::size_t half = signal.size() / 2; half >= 1; half /= 2) {
    launch(device, half, [&](WavefrontCtx& wf) {
      const LaneVec x0 = wf.gather(in, [](int, WorkItemId gid) {
        return static_cast<std::size_t>(2 * gid);
      });
      const LaneVec x1 = wf.gather(in, [](int, WorkItemId gid) {
        return static_cast<std::size_t>(2 * gid + 1);
      });
      const LaneVec scale = wf.splat(kInvSqrt2);
      const LaneVec approx = wf.mul(wf.add(x0, x1), scale);
      const LaneVec detail = wf.mul(wf.sub(x0, x1), scale);
      wf.scatter(out, approx, [](int, WorkItemId gid) {
        return static_cast<std::size_t>(gid);
      });
      wf.scatter(out, detail, [half](int, WorkItemId gid) {
        return half + static_cast<std::size_t>(gid);
      });
    });
    // Details from position `half` on are final; the approximations feed
    // the next level.
    std::copy(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(2 * half), in.begin());
    if (half == 1) break;
  }
  return in;
}

std::vector<float> haar_reference(const std::vector<float>& signal) {
  TM_REQUIRE(is_pow2(signal.size()) && signal.size() >= 2,
             "signal length must be a power of two >= 2");
  std::vector<float> in = signal;
  std::vector<float> out(signal.size());
  for (std::size_t half = signal.size() / 2; half >= 1; half /= 2) {
    for (std::size_t i = 0; i < half; ++i) {
      out[i] = (in[2 * i] + in[2 * i + 1]) * kInvSqrt2;
      out[half + i] = (in[2 * i] - in[2 * i + 1]) * kInvSqrt2;
    }
    std::copy(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(2 * half), in.begin());
    if (half == 1) break;
  }
  return in;
}

HaarWorkload::HaarWorkload(std::size_t length, std::uint64_t seed) {
  TM_REQUIRE(is_pow2(length) && length >= 2,
             "signal length must be a power of two >= 2");
  // Band-limited "audio-like" test signal in [0, 1]: two tones plus a small
  // amount of noise. Wavelet transforms are applied to smooth natural
  // signals, and this smoothness is what gives the Haar kernel the value
  // locality (and the 0.046 usable threshold) observed in the paper.
  Xorshift128 rng(seed);
  signal_.resize(length);
  const float n = static_cast<float>(length);
  for (std::size_t i = 0; i < length; ++i) {
    const float t = static_cast<float>(i) / n;
    float v = 0.5f + 0.30f * std::sin(6.2832f * t) +
              0.08f * std::sin(6.2832f * 5.0f * t + 0.7f);
    v += 0.01f * (rng.next_float() - 0.5f);
    signal_[i] = v;
  }
}

WorkloadResult HaarWorkload::run(GpuDevice& device) const {
  const std::vector<float> got = haar_on_device(device, signal_);
  const std::vector<float> golden = haar_reference(signal_);
  return compare_outputs_rel_rms(got, golden, verify_tolerance());
}

std::uint64_t HaarWorkload::fp_op_count() const {
  // ADD, SUB and two MULs per work-item; the levels launch n/2 + n/4 + ...
  // + 1 = n - 1 work-items.
  return 4 * (static_cast<std::uint64_t>(signal_.size()) - 1);
}

} // namespace tmemo

#include "workloads/fwt.hpp"

#include <bit>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "kernel/launch.hpp"

namespace tmemo {

namespace {
bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
} // namespace

std::vector<float> fwt_on_device(GpuDevice& device,
                                 const std::vector<float>& signal) {
  TM_REQUIRE(is_pow2(signal.size()) && signal.size() >= 2,
             "signal length must be a power of two >= 2");
  std::vector<float> data = signal;
  const std::size_t n = data.size();

  for (std::size_t len = 1; len < n; len <<= 1) {
    // Work-item gid handles the pair (i, i + len) where
    // i = (gid / len) * 2 * len + (gid % len).
    launch(device, n / 2, [&](WavefrontCtx& wf) {
      auto lo_index = [len](int, WorkItemId gid) {
        const std::size_t g = static_cast<std::size_t>(gid);
        return (g / len) * (2 * len) + (g % len);
      };
      auto hi_index = [len, lo_index](int lane, WorkItemId gid) {
        return lo_index(lane, gid) + len;
      };
      const LaneVec a = wf.gather(data, lo_index);
      const LaneVec b = wf.gather(data, hi_index);
      const LaneVec sum = wf.add(a, b);
      const LaneVec dif = wf.sub(a, b);
      wf.scatter(data, sum, lo_index);
      wf.scatter(data, dif, hi_index);
    });
  }
  return data;
}

std::vector<float> fwt_reference(const std::vector<float>& signal) {
  TM_REQUIRE(is_pow2(signal.size()) && signal.size() >= 2,
             "signal length must be a power of two >= 2");
  std::vector<float> data = signal;
  const std::size_t n = data.size();
  for (std::size_t len = 1; len < n; len <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * len) {
      for (std::size_t j = i; j < i + len; ++j) {
        const float a = data[j];
        const float b = data[j + len];
        data[j] = a + b;
        data[j + len] = a - b;
      }
    }
  }
  return data;
}

FwtWorkload::FwtWorkload(std::size_t length, std::uint64_t seed)
    : requested_(length) {
  const std::size_t n = next_pow2(std::max<std::size_t>(length, 2));
  // Walsh-Hadamard transforms operate on sparse/ternary code vectors in
  // their classic applications (spreading codes, sign patterns): a mostly-
  // zero {-1, 0, +1} input. The small discrete value alphabet flowing
  // through the butterflies is what exact-matching memoization can exploit
  // (threshold = 0 for this error-intolerant kernel).
  Xorshift128 rng(seed);
  signal_.resize(n);
  for (float& v : signal_) {
    const std::uint64_t r = rng.next_below(40);
    v = r == 0 ? 1.0f : (r == 1 ? -1.0f : 0.0f);
  }
}

WorkloadResult FwtWorkload::run(GpuDevice& device) const {
  const std::vector<float> got = fwt_on_device(device, signal_);
  const std::vector<float> golden = fwt_reference(signal_);
  return compare_outputs(got, golden, verify_tolerance());
}

std::uint64_t FwtWorkload::fp_op_count() const {
  // ADD and SUB per butterfly: n/2 work-items in each of log2(n) launches.
  const auto n = static_cast<std::uint64_t>(signal_.size());
  return n * static_cast<std::uint64_t>(std::countr_zero(n));
}

} // namespace tmemo

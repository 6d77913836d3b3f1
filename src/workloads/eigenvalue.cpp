#include "workloads/eigenvalue.hpp"

#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "kernel/launch.hpp"

namespace tmemo {

namespace {
constexpr float kQEpsilon = 1e-6f; ///< Sturm pivot floor

/// Host-side Gershgorin bounds of the matrix spectrum.
std::pair<float, float> gershgorin(const Tridiagonal& m) {
  float lo = m.diag[0];
  float hi = m.diag[0];
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) {
    float radius = 0.0f;
    if (i > 0) radius += ::fabsf(m.offdiag[i - 1]);
    if (i + 1 < n) radius += ::fabsf(m.offdiag[i]);
    lo = ::fminf(lo, m.diag[i] - radius);
    hi = ::fmaxf(hi, m.diag[i] + radius);
  }
  return {lo, hi};
}
} // namespace

Tridiagonal make_tridiagonal(std::size_t n, std::uint64_t seed) {
  TM_REQUIRE(n >= 2, "matrix order must be >= 2");
  Xorshift128 rng(seed);
  Tridiagonal m;
  m.diag.resize(n);
  m.offdiag.resize(n - 1);
  for (float& d : m.diag) d = 2.0f * rng.next_float() - 1.0f;
  for (float& e : m.offdiag) e = 2.0f * rng.next_float() - 1.0f;
  return m;
}

std::vector<float> eigenvalues_on_device(GpuDevice& device,
                                         const Tridiagonal& m,
                                         int iterations,
                                         bool sc_adjacent_mapping) {
  TM_REQUIRE(iterations >= 1, "need at least one bisection iteration");
  const std::size_t n = m.size();
  const auto [glo, ghi] = gershgorin(m);

  // Precomputed squared off-diagonals (host side, resilient memory).
  std::vector<float> e2(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) e2[i] = m.offdiag[i] * m.offdiag[i];

  // Per-work-item eigenvalue index, as a float for the SETGT compare.
  std::vector<float> index_f(n);
  for (std::size_t i = 0; i < n; ++i) index_f[i] = static_cast<float>(i);

  std::vector<float> out(n);

  // Work-item -> eigenvalue-index mapping. With SC-adjacent mapping, the
  // four lanes that time-share one stream core (lane, lane+16, lane+32,
  // lane+48) receive ADJACENT eigenvalue indices, so their bisection paths
  // coincide for many iterations and the per-FPU operand streams repeat —
  // the assignment a memoization-aware programmer picks. The plain mapping
  // is kept for the scheduling ablation study.
  auto eigen_index = [n, sc_adjacent_mapping](WorkItemId gid) -> std::size_t {
    const std::size_t g = static_cast<std::size_t>(gid);
    if (!sc_adjacent_mapping) return g;
    const std::size_t base = (g / 64) * 64;
    if (base + 64 > n) return g; // partial trailing wavefront: identity
    const std::size_t lane = g % 64;
    return base + (lane % 16) * 4 + lane / 16;
  };

  launch(device, n, [&](WavefrontCtx& wf) {
    auto by_gid = [&eigen_index](int, WorkItemId gid) {
      return eigen_index(gid);
    };
    const LaneVec zero = wf.splat(0.0f);
    const LaneVec half = wf.splat(0.5f);
    const LaneVec eps = wf.splat(kQEpsilon);
    const LaneVec neg_eps = wf.splat(-kQEpsilon);
    const LaneVec idx = wf.gather(index_f, by_gid);

    LaneVec lo = wf.splat(glo);
    LaneVec hi = wf.splat(ghi);

    for (int it = 0; it < iterations; ++it) {
      const LaneVec mid = wf.mul(wf.add(lo, hi), half);

      // Sturm sequence: count eigenvalues below mid.
      LaneVec count = zero;
      LaneVec q = wf.sub(wf.splat(m.diag[0]), mid);
      count = wf.add(count, wf.setgt(zero, q));
      for (std::size_t j = 1; j < n; ++j) {
        // Pivot floor: q <- (|q| >= eps) ? q : -eps.
        q = wf.cndge(wf.sub(wf.abs(q), eps), q, neg_eps);
        const LaneVec t = wf.mul(wf.splat(e2[j - 1]), wf.recip(q));
        q = wf.sub(wf.sub(wf.splat(m.diag[j]), mid), t);
        count = wf.add(count, wf.setgt(zero, q));
      }

      // If count > index, lambda_index < mid: shrink from above.
      const LaneVec above = wf.sub(wf.setgt(count, idx), half);
      hi = wf.cndge(above, mid, hi);
      lo = wf.cndge(above, lo, mid);
    }
    wf.scatter(out, wf.mul(wf.add(lo, hi), half), by_gid);
  });
  return out;
}

std::vector<float> eigenvalues_reference(const Tridiagonal& m,
                                         int iterations) {
  TM_REQUIRE(iterations >= 1, "need at least one bisection iteration");
  const std::size_t n = m.size();
  const auto [glo, ghi] = gershgorin(m);

  std::vector<float> e2(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) e2[i] = m.offdiag[i] * m.offdiag[i];

  std::vector<float> out(n);
  for (std::size_t lane = 0; lane < n; ++lane) {
    const float idx = static_cast<float>(lane);
    float lo = glo;
    float hi = ghi;
    for (int it = 0; it < iterations; ++it) {
      const float mid = (lo + hi) * 0.5f;
      float count = 0.0f;
      float q = m.diag[0] - mid;
      count += (0.0f > q) ? 1.0f : 0.0f;
      for (std::size_t j = 1; j < n; ++j) {
        q = (::fabsf(q) - kQEpsilon >= 0.0f) ? q : -kQEpsilon;
        const float t = e2[j - 1] * (1.0f / q);
        q = (m.diag[j] - mid) - t;
        count += (0.0f > q) ? 1.0f : 0.0f;
      }
      const float above = ((count > idx) ? 1.0f : 0.0f) - 0.5f;
      hi = (above >= 0.0f) ? mid : hi;
      lo = (above >= 0.0f) ? lo : mid;
    }
    out[lane] = (lo + hi) * 0.5f;
  }
  return out;
}

EigenValueWorkload::EigenValueWorkload(std::size_t n, int iterations,
                                       std::uint64_t seed)
    : matrix_(make_tridiagonal(n, seed)), iterations_(iterations) {}

WorkloadResult EigenValueWorkload::run(GpuDevice& device) const {
  const std::vector<float> got =
      eigenvalues_on_device(device, matrix_, iterations_);
  const std::vector<float> golden =
      eigenvalues_reference(matrix_, iterations_);
  return compare_outputs(got, golden, verify_tolerance());
}

std::uint64_t EigenValueWorkload::fp_op_count() const {
  // Per work-item and bisection iteration: 9 ops per row of the Sturm
  // sequence (the first row's 5 plus the 4 of the interval update make 9
  // too); then ADD and MUL for the final midpoint.
  const auto n = static_cast<std::uint64_t>(matrix_.size());
  const auto iterations = static_cast<std::uint64_t>(iterations_);
  return n * (9 * n * iterations + 2);
}

} // namespace tmemo

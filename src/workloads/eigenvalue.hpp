// Eigenvalues of a symmetric tridiagonal matrix by bisection (the SDK
// EigenValue sample's algorithm).
//
// Work-item i refines eigenvalue lambda_i inside the Gershgorin interval by
// fixed-count bisection; each step evaluates the Sturm sequence
//   q_1 = d_1 - x,   q_j = d_j - x - e_{j-1}^2 / q_{j-1}
// whose number of negative terms counts the eigenvalues below x. The inner
// loop exercises the ADD (sub/compare/select) and RECIP units intensely —
// EigenValue activates the most FPU types of all seven kernels (Fig. 8).
//
// Table 1: input parameter 1000x1000, threshold 0.0 (exact matching).
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace tmemo {

/// A symmetric tridiagonal matrix (diagonal d, off-diagonal e).
struct Tridiagonal {
  std::vector<float> diag;
  std::vector<float> offdiag; ///< length diag.size() - 1

  [[nodiscard]] std::size_t size() const noexcept { return diag.size(); }
};

/// Deterministic SDK-style random tridiagonal matrix of order n.
[[nodiscard]] Tridiagonal make_tridiagonal(std::size_t n,
                                           std::uint64_t seed = 31);

/// All n eigenvalues (ascending) computed on the device with `iterations`
/// bisection steps. `sc_adjacent_mapping` assigns adjacent eigenvalue
/// indices to the lanes that time-share a stream core, maximizing the
/// operand-stream locality the LUTs see (disable for the scheduling
/// ablation).
[[nodiscard]] std::vector<float> eigenvalues_on_device(
    GpuDevice& device, const Tridiagonal& m, int iterations = 24,
    bool sc_adjacent_mapping = true);
[[nodiscard]] std::vector<float> eigenvalues_reference(const Tridiagonal& m,
                                                       int iterations = 24);

class EigenValueWorkload final : public Workload {
 public:
  explicit EigenValueWorkload(std::size_t n, int iterations = 24,
                              std::uint64_t seed = 31);

  [[nodiscard]] std::string_view name() const override { return "EigenValue"; }
  [[nodiscard]] std::string input_parameter() const override {
    return std::to_string(matrix_.size()) + "x" +
           std::to_string(matrix_.size());
  }
  [[nodiscard]] float table1_threshold() const override { return 0.0f; }
  /// Exact matching: the device result must be bit-identical.
  [[nodiscard]] double verify_tolerance() const override { return 0.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

 private:
  Tridiagonal matrix_;
  int iterations_;
};

} // namespace tmemo

// Common interface of the seven AMD APP SDK v2.5 kernels re-implemented
// against the kernel DSL (paper Table 1):
//
//   Kernel          Input parameter      threshold
//   Sobel           face (1536x1536)     1.0
//   Gaussian        face (1536x1536)     0.8
//   Haar            1024                 0.046
//   BinomialOption  20                   0.000025
//   BlackScholes    20                   0.000025
//   FWT             1000000              0.0
//   EigenValue      1000x1000            0.0
//
// Each workload carries its Table-1 input parameter and threshold, runs on
// a GpuDevice, and verifies its committed outputs against a host-side
// golden reference — the SDK-style "test program executed in the host code"
// that must report `passed` (paper §4.1, footnote 1).
//
// A scale factor (default 1.0) shrinks the problem size proportionally so
// the full benchmark suite stays tractable on a laptop; the paper-size
// problems remain available with scale = 1.0.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/device.hpp"

namespace tmemo {

/// Outcome of one workload run.
struct WorkloadResult {
  std::size_t output_values = 0;   ///< number of committed output values
  double max_abs_error = 0.0;      ///< vs. host golden reference
  double mean_abs_error = 0.0;
  double rel_rms_error = 0.0;      ///< sqrt(sum(d^2) / sum(ref^2))
  /// Silent-data-corruption count: committed values whose deviation from
  /// the golden reference exceeds the verification tolerance (per-value;
  /// docs/FAULT_INJECTION.md). Approximate-matching noise within tolerance
  /// is by design and not counted; without fault injection this is 0 for
  /// every passing run.
  std::size_t sdc_values = 0;
  bool passed = false;             ///< SDK-style host verification

  [[nodiscard]] double sdc_rate() const noexcept {
    return output_values == 0 ? 0.0
                              : static_cast<double>(sdc_values) /
                                    static_cast<double>(output_values);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Kernel name as in Table 1 (e.g. "BinomialOption").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Human-readable input parameter (Table 1 middle column, after scaling).
  [[nodiscard]] virtual std::string input_parameter() const = 0;

  /// The approximation threshold selected in Table 1.
  [[nodiscard]] virtual float table1_threshold() const = 0;

  /// True for the error-tolerant image-processing class (§4).
  [[nodiscard]] virtual bool error_tolerant() const { return false; }

  /// Absolute output tolerance of the host verification test.
  [[nodiscard]] virtual double verify_tolerance() const = 0;

  /// Launches the kernel(s) on `device` (which must already be configured:
  /// matching constraint, error model, supply) and verifies the outputs.
  [[nodiscard]] virtual WorkloadResult run(GpuDevice& device) const = 0;

  /// The number of FP instructions run() issues, one per active lane of
  /// every wavefront op: KernelRunReport::total_instructions() of a run
  /// without spatial memoization. The kernels have no data-dependent
  /// control flow, so it is known before the run. 0 means unknown. The
  /// campaign engine dispatches the costliest jobs first by it.
  [[nodiscard]] virtual std::uint64_t fp_op_count() const { return 0; }
};

/// All seven Table-1 workloads at the given problem scale. scale = 1.0
/// reproduces the paper's sizes; benches default to smaller scales.
[[nodiscard]] std::vector<std::unique_ptr<Workload>> make_all_workloads(
    double scale);

/// Shared helper: compares committed outputs to a golden reference and
/// fills the error fields of a WorkloadResult. Pass criterion: the maximum
/// absolute error stays within `tolerance`.
[[nodiscard]] WorkloadResult compare_outputs(const std::vector<float>& got,
                                             const std::vector<float>& golden,
                                             double tolerance);

/// Like compare_outputs() but with the SDK's normalized-RMS pass criterion
/// sqrt(sum(d^2)/sum(ref^2)) <= rel_tolerance (used by the financial
/// kernels, whose host tests compare whole output vectors).
[[nodiscard]] WorkloadResult compare_outputs_rel_rms(
    const std::vector<float>& got, const std::vector<float>& golden,
    double rel_tolerance);

} // namespace tmemo

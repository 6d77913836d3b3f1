// Black-Scholes European option pricing (error-intolerant class, but the
// paper found threshold = 0.000025 still passes the SDK host test).
//
// One work-item prices one option: call and put values via the closed-form
// formula with the Abramowitz-Stegun polynomial approximation of the
// cumulative normal distribution — the exact math of the SDK sample.
// Exercises ADD, MUL, MULADD, SQRT, RECIP, EXPLOG and the CNDGE select.
//
// Table 1 lists the SDK "samples" parameter as 20; the SDK host expands one
// sample into a 64x64 work block, so 20 samples correspond to 20 * 4096
// priced options. The workload stores the expanded option count.
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace tmemo {

/// Per-option inputs (SDK host-generated ranges).
struct OptionInputs {
  std::vector<float> stock_price;   ///< S in [10, 100]
  std::vector<float> strike_price;  ///< K in [10, 100]
  std::vector<float> years;         ///< T in [1, 10]
  float riskfree_rate = 0.02f;
  float volatility = 0.30f;

  [[nodiscard]] std::size_t size() const noexcept {
    return stock_price.size();
  }
};

/// Deterministic SDK-style input generation for `n` options.
[[nodiscard]] OptionInputs make_option_inputs(std::size_t n,
                                              std::uint64_t seed = 77);

/// Prices all options on the device; returns call prices followed by put
/// prices (2n values).
[[nodiscard]] std::vector<float> blackscholes_on_device(
    GpuDevice& device, const OptionInputs& in);
[[nodiscard]] std::vector<float> blackscholes_reference(
    const OptionInputs& in);

class BlackScholesWorkload final : public Workload {
 public:
  /// `samples` is the Table-1 parameter (20); each sample is 4096 options.
  explicit BlackScholesWorkload(std::size_t samples, std::uint64_t seed = 77);

  [[nodiscard]] std::string_view name() const override {
    return "BlackScholes";
  }
  [[nodiscard]] std::string input_parameter() const override {
    return std::to_string(samples_);
  }
  [[nodiscard]] float table1_threshold() const override { return 0.000025f; }
  /// SDK-style normalized-RMS tolerance.
  [[nodiscard]] double verify_tolerance() const override { return 1e-4; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

 private:
  std::size_t samples_;
  OptionInputs inputs_;
};

} // namespace tmemo

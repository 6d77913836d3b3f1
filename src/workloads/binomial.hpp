// Binomial-lattice European option pricing (CRR model).
//
// One work-item prices one option over a `steps`-deep recombining lattice:
// leaf payoffs max(S_i - K, 0) followed by backward induction
// v[i] = disc * (pd * v[i] + pu * v[i+1]). The backward loop dominates and
// exercises MULADD/MUL heavily; the lattice setup uses SQRT, RECIP and
// EXP2 (for the up/down factors).
//
// Table 1: input parameter 20 (number of samples/options), threshold
// 0.000025.
#pragma once

#include <vector>

#include "workloads/blackscholes.hpp" // OptionInputs
#include "workloads/workload.hpp"

namespace tmemo {

/// Prices all options on the device with a `steps`-step lattice; returns
/// one call price per option.
[[nodiscard]] std::vector<float> binomial_on_device(GpuDevice& device,
                                                    const OptionInputs& in,
                                                    int steps);
[[nodiscard]] std::vector<float> binomial_reference(const OptionInputs& in,
                                                    int steps);

class BinomialOptionWorkload final : public Workload {
 public:
  /// `samples` is the Table-1 parameter (20 options). `steps` defaults to
  /// the SDK's 254-step lattice.
  explicit BinomialOptionWorkload(std::size_t samples, int steps = 254,
                                  std::uint64_t seed = 99);

  [[nodiscard]] std::string_view name() const override {
    return "BinomialOption";
  }
  [[nodiscard]] std::string input_parameter() const override {
    return std::to_string(inputs_.size());
  }
  [[nodiscard]] float table1_threshold() const override { return 0.000025f; }
  /// SDK-style normalized-RMS tolerance.
  [[nodiscard]] double verify_tolerance() const override { return 1e-4; }
  [[nodiscard]] WorkloadResult run(GpuDevice& device) const override;
  [[nodiscard]] std::uint64_t fp_op_count() const override;

 private:
  OptionInputs inputs_;
  int steps_;
};

} // namespace tmemo

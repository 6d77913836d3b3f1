#include "timing/error_model.hpp"

#include "common/require.hpp"

namespace tmemo {

FixedRateErrorModel::FixedRateErrorModel(double rate) : rate_(rate) {
  TM_REQUIRE(rate >= 0.0 && rate <= 1.0,
             "timing-error rate must lie in [0, 1]");
}

VoltageErrorModel::VoltageErrorModel(VoltageScaling scaling, Volt supply)
    : scaling_(scaling), supply_(supply) {
  TM_REQUIRE(supply > scaling_.params().threshold_voltage,
             "supply must stay above the threshold voltage");
  for (FpuType unit : kAllFpuTypes) {
    op_error_[static_cast<std::size_t>(unit)] =
        scaling_.op_error_probability(supply_, fpu_latency_cycles(unit));
  }
}

} // namespace tmemo

// Workload::fp_op_count() against a real run: the count each kernel
// promises before it runs must equal the instructions its run retires with
// spatial memoization off (reused lanes retire no FPU instruction). The
// campaign engine orders dispatch by it, so a kernel edit that changes the
// op mix without updating the count fails here.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/simulation.hpp"
#include "workloads/haar.hpp"
#include "workloads/workload.hpp"

namespace tmemo {
namespace {

std::uint64_t retired_instructions(const Workload& w) {
  const Simulation sim; // spatial memoization off by default
  EXPECT_FALSE(sim.config().spatial);
  return sim.run(w, RunSpec::at_error_rate(0.02)).total_instructions();
}

class OpCountAtScale : public ::testing::TestWithParam<double> {};

TEST_P(OpCountAtScale, EqualsRetiredInstructionsForEveryTable1Kernel) {
  const auto workloads = make_all_workloads(GetParam());
  ASSERT_EQ(workloads.size(), 7u);
  for (const auto& w : workloads) {
    SCOPED_TRACE(std::string(w->name()) + " " + w->input_parameter());
    EXPECT_GT(w->fp_op_count(), 0u);
    EXPECT_EQ(w->fp_op_count(), retired_instructions(*w));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, OpCountAtScale,
                         ::testing::Values(0.01, 0.04));

TEST(OpCount, HaarWithPartialWavefronts) {
  // 128 samples: every level launches fewer work-items than a wavefront.
  const HaarWorkload haar(128);
  EXPECT_EQ(haar.fp_op_count(), 4u * 127u);
  EXPECT_EQ(haar.fp_op_count(), retired_instructions(haar));
}

TEST(OpCount, DefaultIsUnknown) {
  struct Opaque final : Workload {
    std::string_view name() const override { return "Opaque"; }
    std::string input_parameter() const override { return "-"; }
    float table1_threshold() const override { return 0.0f; }
    double verify_tolerance() const override { return 0.0; }
    WorkloadResult run(GpuDevice&) const override { return {}; }
  };
  EXPECT_EQ(Opaque{}.fp_op_count(), 0u);
}

} // namespace
} // namespace tmemo

#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "workloads/haar.hpp"
#include "workloads/workload.hpp"

namespace tmemo {
namespace {

// A 3-kernel x 3-point grid, small enough to run many times per test.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.scale = 0.01;
  spec.kernels = {"haar", "fwt", "blackscholes"};
  spec.axis = SweepAxis::error_rate(0.0, 0.04, 3);
  return spec;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobResult& ja = a.jobs[i];
    const JobResult& jb = b.jobs[i];
    SCOPED_TRACE("job " + std::to_string(i) + " (" + ja.job.kernel + ")");
    EXPECT_EQ(ja.job.kernel, jb.job.kernel);
    EXPECT_EQ(ja.job.axis_value, jb.job.axis_value);
    EXPECT_EQ(ja.job.spec.seed(), jb.job.spec.seed());
    EXPECT_EQ(ja.ok, jb.ok);
    // Bit-identical measurements: exact double equality, no tolerance.
    EXPECT_EQ(ja.report.weighted_hit_rate, jb.report.weighted_hit_rate);
    EXPECT_EQ(ja.report.energy.memoized_pj, jb.report.energy.memoized_pj);
    EXPECT_EQ(ja.report.energy.baseline_pj, jb.report.energy.baseline_pj);
    EXPECT_EQ(ja.report.result.max_abs_error, jb.report.result.max_abs_error);
    EXPECT_EQ(ja.report.result.passed, jb.report.result.passed);
    for (std::size_t u = 0; u < static_cast<std::size_t>(kNumFpuTypes); ++u) {
      EXPECT_EQ(ja.report.unit_stats[u].instructions,
                jb.report.unit_stats[u].instructions);
      EXPECT_EQ(ja.report.unit_stats[u].hits, jb.report.unit_stats[u].hits);
      EXPECT_EQ(ja.report.unit_stats[u].timing_errors,
                jb.report.unit_stats[u].timing_errors);
    }
  }
}

TEST(Campaign, SerialAndParallelRunsAreBitIdentical) {
  // The ISSUE acceptance bar: --jobs 1 and --jobs 8 produce the same
  // CampaignResult for a 3-kernel x 3-point sweep.
  const CampaignResult serial = CampaignEngine(1).run(small_spec());
  const CampaignResult parallel = CampaignEngine(8).run(small_spec());
  ASSERT_EQ(serial.jobs.size(), 9u);
  EXPECT_EQ(serial.workers, 1);
  EXPECT_TRUE(serial.all_ok());
  expect_identical(serial, parallel);
}

class ThrowingWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "Boom"; }
  [[nodiscard]] std::string input_parameter() const override { return "-"; }
  [[nodiscard]] float table1_threshold() const override { return 0.0f; }
  [[nodiscard]] double verify_tolerance() const override { return 0.0; }
  [[nodiscard]] WorkloadResult run(GpuDevice&) const override {
    throw std::runtime_error("injected failure");
  }
};

SweepSpec failing_spec() {
  SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<HaarWorkload>(256));
    v.push_back(std::make_unique<ThrowingWorkload>());
    v.push_back(std::make_unique<HaarWorkload>(128));
    return v;
  };
  spec.axis = SweepAxis::error_rate_point(0.0);
  return spec;
}

TEST(Campaign, FailingJobDoesNotAbortCampaign) {
  const CampaignResult res = CampaignEngine(2).run(failing_spec());
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_TRUE(res.jobs[0].ok);
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_NE(res.jobs[1].error.find("injected failure"), std::string::npos);
  EXPECT_TRUE(res.jobs[2].ok);
  EXPECT_EQ(res.failed(), 1u);
  EXPECT_FALSE(res.all_ok());
  EXPECT_FALSE(res.all_passed());
  // The healthy jobs still carry real measurements.
  EXPECT_TRUE(res.jobs[0].report.result.passed);
  EXPECT_GT(res.jobs[0].report.energy.baseline_pj, 0.0);
}

TEST(Campaign, ExpansionOrderIsStableAndSeedsAreDerived) {
  SweepSpec spec = small_spec();
  spec.thresholds = {0.0f, 0.1f};
  spec.variants.push_back({"base", {}});
  ConfigVariant gated;
  gated.label = "no-memo";
  gated.config.memoization = false;
  spec.variants.push_back(gated);

  const auto jobs = CampaignEngine::expand(spec);
  // variants (2) x kernels (3) x thresholds (2) x points (3)
  ASSERT_EQ(jobs.size(), 36u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    ASSERT_TRUE(jobs[i].spec.seed().has_value());
    EXPECT_EQ(*jobs[i].spec.seed(), derive_job_seed(spec.campaign_seed, i));
    seeds.insert(*jobs[i].spec.seed());
  }
  EXPECT_EQ(seeds.size(), jobs.size()) << "per-job seeds must be distinct";
  // Nesting order: variant outermost, axis point innermost.
  EXPECT_EQ(jobs[0].variant_label, "base");
  EXPECT_EQ(jobs[18].variant_label, "no-memo");
  EXPECT_EQ(jobs[0].axis_value, 0.0);
  EXPECT_EQ(jobs[1].axis_value, 0.02);
  EXPECT_EQ(jobs[2].axis_value, 0.04);
  EXPECT_EQ(jobs[0].kernel, jobs[5].kernel);
  EXPECT_NE(jobs[0].kernel, jobs[6].kernel);
}

TEST(Campaign, UnknownKernelFilterThrows) {
  SweepSpec spec = small_spec();
  spec.kernels = {"haar", "no-such-kernel"};
  EXPECT_THROW((void)CampaignEngine::expand(spec), std::invalid_argument);
}

TEST(Campaign, AxisParseRoundTrips) {
  const auto err = SweepAxis::parse("error-rate:0:0.04:9");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, SweepAxis::Kind::kErrorRate);
  EXPECT_EQ(err->start, 0.0);
  EXPECT_EQ(err->stop, 0.04);
  EXPECT_EQ(err->count, 9);
  EXPECT_EQ(err->points().size(), 9u);

  const auto volt = SweepAxis::parse("voltage:0.9:0.8:6");
  ASSERT_TRUE(volt.has_value());
  EXPECT_EQ(volt->kind, SweepAxis::Kind::kVoltage);
  EXPECT_EQ(volt->points().front(), 0.9);
  EXPECT_EQ(volt->points().back(), 0.8);

  EXPECT_FALSE(SweepAxis::parse(""));
  EXPECT_FALSE(SweepAxis::parse("frequency:1:2:3"));
  EXPECT_FALSE(SweepAxis::parse("error-rate:0:0.04"));
  EXPECT_FALSE(SweepAxis::parse("error-rate:0:0.04:0"));
  EXPECT_FALSE(SweepAxis::parse("error-rate:0:0.04:2.5"));
  EXPECT_FALSE(SweepAxis::parse("voltage:0:0.9:3"));
  EXPECT_FALSE(SweepAxis::parse("error-rate:a:b:3"));
  EXPECT_FALSE(SweepAxis::parse("error-rate:0:0.04:9:extra"));
}

TEST(Campaign, AxisPointsAreEvenlySpacedAndInclusive) {
  const SweepAxis axis = SweepAxis::error_rate(0.0, 0.04, 5);
  const auto pts = axis.points();
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[0], 0.0);
  EXPECT_DOUBLE_EQ(pts[2], 0.02);
  EXPECT_DOUBLE_EQ(pts[4], 0.04);
  EXPECT_EQ(SweepAxis::voltage_point(0.82).points(),
            std::vector<double>{0.82});
}

TEST(Campaign, WritersProduceStructuredOutput) {
  SweepSpec spec;
  spec.scale = 0.01;
  spec.kernels = {"haar"};
  spec.axis = SweepAxis::error_rate(0.0, 0.04, 2);
  const CampaignResult res = CampaignEngine(1).run(spec);

  std::ostringstream csv;
  write_campaign_csv(res, csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("index,variant,kernel"), std::string::npos);
  // header + one line per job + the self-describing record-count footer
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv_text.begin(), csv_text.end(), '\n')),
            1 + res.jobs.size() + 1);
  EXPECT_NE(csv_text.find("#tmemo-artifact-end,rows="), std::string::npos);

  std::ostringstream json;
  write_campaign_json(res, json);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"schema\": \"tmemo-campaign-v1\""),
            std::string::npos);
  EXPECT_NE(json_text.find("\"kernel\": \"Haar\""), std::string::npos);
  EXPECT_NE(json_text.find("\"passed\": true"), std::string::npos);
}

TEST(Campaign, FailedJobsAppearInWriters) {
  const CampaignResult res = CampaignEngine(1).run(failing_spec());
  std::ostringstream csv;
  write_campaign_csv(res, csv);
  EXPECT_NE(csv.str().find("error,injected failure"), std::string::npos);
  std::ostringstream json;
  write_campaign_json(res, json);
  EXPECT_NE(json.str().find("\"error\": \"injected failure\""),
            std::string::npos);
}

// -- Dispatch order -----------------------------------------------------------

TEST(CampaignDispatch, LongestFirstTiesByIndexUnknownLast) {
  const std::uint64_t counts[] = {10, 0, 30, 10, 0, 30, 20};
  std::vector<CampaignJob> jobs(std::size(counts));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].index = i;
    jobs[i].fp_op_count = counts[i];
  }
  EXPECT_EQ(dispatch_order(jobs),
            (std::vector<std::size_t>{2, 5, 6, 0, 3, 1, 4}));
  EXPECT_TRUE(dispatch_order({}).empty());
  // Equal (or all unknown) counts keep index order.
  for (CampaignJob& j : jobs) j.fp_op_count = 0;
  EXPECT_EQ(dispatch_order(jobs),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(CampaignDispatch, ExpandCarriesEachWorkloadsOpCount) {
  const SweepSpec spec = small_spec();
  const auto workloads = make_all_workloads(spec.scale);
  for (const CampaignJob& job : CampaignEngine::expand(spec)) {
    ASSERT_LT(job.workload_index, workloads.size());
    EXPECT_GT(job.fp_op_count, 0u) << job.kernel;
    EXPECT_EQ(job.fp_op_count,
              workloads[job.workload_index]->fp_op_count());
  }
}

/// The job indices of `spec`'s journal rows, in the order they were
/// appended: with one worker, the order the jobs were dispatched in.
std::vector<std::size_t> journaled_order(const SweepSpec& spec,
                                         CampaignRunOptions options,
                                         const std::string& name) {
  const std::string path = ::testing::TempDir() + "tmemo_" + name;
  std::remove(path.c_str());
  options.journal_path = path;
  const CampaignResult res = CampaignEngine(1).run(spec, options);
  EXPECT_TRUE(res.all_ok());
  std::ifstream in(path);
  const CampaignJournal journal = read_campaign_journal(in);
  std::remove(path.c_str());
  std::vector<std::size_t> order;
  for (const JobResult& e : journal.entries) order.push_back(e.job.index);
  return order;
}

TEST(CampaignDispatch, ThreadPoolAndSupervisorStartTheCostliestJobFirst) {
  const SweepSpec spec = small_spec();
  const std::vector<std::size_t> want =
      dispatch_order(CampaignEngine::expand(spec));
  // Haar (4092 ops) is expanded first but cheapest; FWT and BlackScholes
  // tie at 229376 ops each and keep their index order.
  ASSERT_EQ(want, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8, 0, 1, 2}));
  EXPECT_EQ(journaled_order(spec, {}, "dispatch_threads.csv"), want);
  CampaignRunOptions process;
  process.isolation = IsolationMode::kProcess;
  EXPECT_EQ(journaled_order(spec, process, "dispatch_process.csv"), want);
}

} // namespace
} // namespace tmemo

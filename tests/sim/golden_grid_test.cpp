// Golden campaign grids: checked-in tmemo_sim outputs (tests/golden/, see
// its README.md) regenerated in-process and byte-diffed. The flag lists are
// parsed by the same cli::SpecFlags that tmemo_sim uses, so each case runs
// exactly the grid its command line describes. The CSVs carry every column
// but wall_ms, the one wall-clock field.
//
// Metrics JSON goldens pin the telemetry of the plain, spatial and injected
// grids, and one Chrome trace pins the per-lane timeline instants.
//
// These pin the paths the perfbench gate does not: spatial memoization,
// power-gated modules, a deeper LUT, the voltage axis and the fault
// injectors (LUT SEUs with parity, EDS false negatives/positives, the ECU
// watchdog). A change that moves which FPU draws which error, or in which
// order FPUs are seeded, shows up here as a diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/spec_flags.hpp"
#include "sim/campaign.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(TM_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

SweepSpec spec_from_flags(const std::vector<std::string>& args) {
  cli::SpecFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool ours = flags.try_parse(
        arg, [&] { return args.at(++i); }, [] {});
    EXPECT_TRUE(ours) << arg << " is not a campaign-grid flag";
  }
  flags.validate();
  return flags.to_spec();
}

/// The campaign CSV without its wall_ms column (field 20). Golden rows
/// hold no quoted fields, so a plain comma split is exact.
std::string csv_without_wall_ms(const CampaignResult& result) {
  std::ostringstream raw;
  write_campaign_csv(result, raw);
  std::istringstream lines(raw.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') {
      out += line + '\n';
      continue;
    }
    std::size_t start = 0;
    for (int field = 0; field < 19; ++field) start = line.find(',', start) + 1;
    const std::size_t end = line.find(',', start);
    out += line.substr(0, start) + line.substr(end + 1) + '\n';
  }
  return out;
}

struct GoldenCase {
  const char* csv;
  const char* metrics; // nullptr: the case has no metrics golden
  std::vector<std::string> flags;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.csv; }

class GoldenGrid : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenGrid, RegeneratesByteIdentically) {
  const GoldenCase& c = GetParam();
  std::vector<std::string> args = {"--kernel", "all", "--scale", "0.01"};
  args.insert(args.end(), c.flags.begin(), c.flags.end());
  SweepSpec spec = spec_from_flags(args);
  spec.metrics = c.metrics != nullptr;

  const CampaignResult result = CampaignEngine(2).run(spec);
  EXPECT_EQ(csv_without_wall_ms(result), read_golden(c.csv));
  if (c.metrics != nullptr) {
    std::ostringstream json;
    telemetry::write_metrics_json(result.metrics, json);
    EXPECT_EQ(json.str(), read_golden(c.metrics));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TmemoSimFlagSets, GoldenGrid,
    ::testing::Values(
        GoldenCase{"errsweep.csv", "errsweep_metrics.json",
                   {"--sweep", "error-rate:0:0.04:3"}},
        GoldenCase{"spatial.csv", "spatial_metrics.json",
                   {"--error-rate", "0.02", "--spatial"}},
        GoldenCase{"nomemo.csv", nullptr, {"--no-memo"}},
        GoldenCase{"inject.csv", "inject_metrics.json",
                   {"--inject-lut-seu", "0.001", "--inject-parity",
                    "--inject-eds-fn", "0.1", "--inject-eds-fp", "0.001",
                    "--watchdog-budget", "5"}},
        GoldenCase{"vossweep_depth8.csv", nullptr,
                   {"--sweep", "voltage:0.9:0.8:3", "--lut-depth", "8"}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.csv;
      name.resize(name.find('.'));
      return name;
    });

// Job 0's Chrome trace under every injector: the eds_error, ecu_replay and
// watchdog_trip instants pin each lane event's simulation tick.
TEST(GoldenTrace, InjectedHaarTraceRegeneratesByteIdentically) {
  SweepSpec spec = spec_from_flags(
      {"--kernel", "haar", "--error-rate", "0.04", "--scale", "0.01",
       "--inject-lut-seu", "0.001", "--inject-parity", "--inject-eds-fn",
       "0.1", "--inject-eds-fp", "0.001", "--watchdog-budget", "5"});
  spec.timeline = true;

  const CampaignResult result = CampaignEngine(2).run(spec);
  ASSERT_NE(result.timeline, nullptr);
  std::ostringstream trace;
  telemetry::write_chrome_trace(*result.timeline, trace);
  EXPECT_EQ(trace.str(), read_golden("inject_haar_trace.json"));
}

// -- Shape claims, read from the golden grids ----------------------------------

/// The rows of a golden CSV as name -> value maps (no quoted fields; the
/// record-count footer and other '#' lines are skipped).
std::vector<std::map<std::string, std::string>> golden_rows(
    const std::string& name) {
  std::istringstream lines(read_golden(name));
  const auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::istringstream in(line);
    for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
    if (!line.empty() && line.back() == ',') fields.emplace_back();
    return fields;
  };
  std::string header;
  std::getline(lines, header);
  const std::vector<std::string> columns = split(header);
  std::vector<std::map<std::string, std::string>> rows;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split(line);
    EXPECT_EQ(fields.size(), columns.size()) << line;
    std::map<std::string, std::string>& row = rows.emplace_back();
    for (std::size_t i = 0; i < columns.size() && i < fields.size(); ++i) {
      row[columns[i]] = fields[i];
    }
  }
  return rows;
}

// EXPERIMENTS.md, Fig. 10: the energy saving of temporal memoization grows
// with the timing-error rate, because every masked error is a recovery the
// baseline pays and the memoized design does not.
TEST(GoldenShape, SavingRisesStrictlyWithErrorRateForEveryKernel) {
  std::map<std::string, std::vector<std::pair<double, double>>> curves;
  for (const auto& row : golden_rows("errsweep.csv")) {
    ASSERT_EQ(row.at("status"), "ok");
    curves[row.at("kernel")].emplace_back(std::stod(row.at("error_rate")),
                                          std::stod(row.at("saving")));
  }
  ASSERT_EQ(curves.size(), 7u);
  for (auto& [kernel, curve] : curves) {
    SCOPED_TRACE(kernel);
    ASSERT_EQ(curve.size(), 3u);
    std::sort(curve.begin(), curve.end());
    for (std::size_t i = 1; i < curve.size(); ++i) {
      EXPECT_GT(curve[i].first, curve[i - 1].first);
      EXPECT_GT(curve[i].second, curve[i - 1].second)
          << "saving at error rate " << curve[i].first;
    }
  }
}

} // namespace
} // namespace tmemo

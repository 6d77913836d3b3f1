// Tests of the benchmark's own logic: order statistics, worker-pool
// accounting, the grid digest's sensitivity, and metric-name validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/accounting.hpp"
#include "core/grid_digest.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "sim/campaign.hpp"
#include "workloads/haar.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([5.0, 1.0], n=4) == [0.0, 3.0, 6.0]
  const Quartiles two = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.0);
  EXPECT_DOUBLE_EQ(two.q2, 3.0);
  EXPECT_DOUBLE_EQ(two.q3, 6.0);
  EXPECT_THROW((void)quartiles({1.0}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101), std::invalid_argument);
}

TEST(Accounting, BusyFractionIsJobTimeOverOfferedWorkerTime) {
  // 4 workers for 100 ms offer 400 worker-ms; jobs used 300.
  EXPECT_DOUBLE_EQ(busy_fraction(300.0, 100.0, 4), 0.75);
  EXPECT_DOUBLE_EQ(busy_fraction(100.0, 100.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(busy_fraction(5.0, 0.0, 4), 0.0);
}

TEST(Accounting, DispatchPerJobIsUnusedWorkerTimePerJob) {
  // 400 offered - 300 used = 100 worker-ms over 10 jobs.
  EXPECT_DOUBLE_EQ(dispatch_ms_per_job(300.0, 100.0, 4, 10), 10.0);
  EXPECT_DOUBLE_EQ(dispatch_ms_per_job(300.0, 100.0, 4, 0), 0.0);
  // A straggler-free single worker has no dispatch time.
  EXPECT_DOUBLE_EQ(dispatch_ms_per_job(50.0, 50.0, 1, 5), 0.0);
}

/// A real two-job grid, written by the library's own CSV writer.
std::string small_grid_csv() {
  tmemo::SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<tmemo::Workload>> v;
    v.push_back(std::make_unique<tmemo::HaarWorkload>(128));
    return v;
  };
  spec.axis = tmemo::SweepAxis::error_rate(0.0, 0.04, 2);
  const tmemo::CampaignResult r = tmemo::CampaignEngine(1).run(spec);
  std::ostringstream out;
  tmemo::write_campaign_csv(r, out);
  return out.str();
}

TEST(GridDigest, DropsHostColumnsAndRoundTrips) {
  const GridDigest d = GridDigest::from_csv(small_grid_csv());
  ASSERT_EQ(d.rows.size(), 2u);
  const auto has = [&d](const char* column) {
    return std::find(d.columns.begin(), d.columns.end(), column) !=
           d.columns.end();
  };
  EXPECT_FALSE(has("wall_ms"));
  EXPECT_FALSE(has("attempts"));
  EXPECT_TRUE(has("e_memo_pj"));
  const GridDigest back = GridDigest::from_csv(d.to_csv());
  EXPECT_EQ(compare_grids(d, back, 0.0), "");
  EXPECT_EQ(d.fingerprint(), back.fingerprint());
}

TEST(GridDigest, RejectsEverySingleBitFlipInExactColumns) {
  const GridDigest d = GridDigest::from_csv(small_grid_csv());
  for (std::size_t c = 0; c < d.columns.size(); ++c) {
    if (is_energy_column(d.columns[c])) continue;
    for (std::size_t r = 0; r < d.rows.size(); ++r) {
      const std::string& field = d.rows[r][c];
      for (std::size_t pos = 0; pos < field.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
          GridDigest flipped = d;
          flipped.rows[r][c][pos] =
              static_cast<char>(field[pos] ^ static_cast<char>(1 << bit));
          EXPECT_NE(compare_grids(d, flipped), "")
              << d.columns[c] << " row " << r << " char " << pos << " bit "
              << bit;
          EXPECT_NE(d.fingerprint(), flipped.fingerprint());
        }
      }
    }
  }
}

std::string flip_double_bit(const std::string& text, int bit) {
  double v = std::stod(text);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1ull << bit;
  std::memcpy(&v, &bits, sizeof v);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v); // "inf"/"nan" stay parseable
  return buf;
}

TEST(GridDigest, EnergyColumnsRejectModelChangesAndAcceptSummationNoise) {
  const GridDigest d = GridDigest::from_csv(small_grid_csv());
  for (std::size_t c = 0; c < d.columns.size(); ++c) {
    if (!is_energy_column(d.columns[c])) continue;
    for (std::size_t r = 0; r < d.rows.size(); ++r) {
      // Every flip of a mantissa bit worth more than the tolerance, of an
      // exponent bit or of the sign is a model change and must fail.
      for (int bit = 30; bit < 64; ++bit) {
        GridDigest flipped = d;
        flipped.rows[r][c] = flip_double_bit(d.rows[r][c], bit);
        EXPECT_NE(compare_grids(d, flipped), "")
            << d.columns[c] << " row " << r << " bit " << bit;
      }
      // The lowest mantissa bits are what re-summing the same terms in a
      // different order moves; they must pass.
      GridDigest noise = d;
      noise.rows[r][c] = flip_double_bit(d.rows[r][c], 0);
      EXPECT_EQ(compare_grids(d, noise), "") << d.columns[c] << " row " << r;
    }
  }
}

TEST(GridDigest, HostColumnsDoNotEnterTheDigest) {
  const std::string csv = small_grid_csv();
  const GridDigest d = GridDigest::from_csv(csv);
  // The same grid with other wall_ms and attempts values, re-emitted.
  std::istringstream in(csv);
  std::vector<std::string> fields;
  ASSERT_TRUE(tmemo::read_csv_record(in, fields));
  const std::vector<std::string> header = fields;
  std::string edited;
  const auto emit = [&edited](const std::vector<std::string>& f) {
    for (std::size_t i = 0; i < f.size(); ++i) edited += (i ? "," : "") + f[i];
    edited += '\n';
  };
  emit(header);
  while (tmemo::read_csv_record(in, fields)) {
    if (fields.size() != header.size()) continue; // the '#' footer
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == "wall_ms") fields[i] = "123456.5";
      if (header[i] == "attempts") fields[i] = "7";
    }
    emit(fields);
  }
  const GridDigest e = GridDigest::from_csv(edited);
  EXPECT_EQ(compare_grids(d, e, 0.0), "");
  EXPECT_EQ(d.fingerprint(), e.fingerprint());
}

TEST(Report, MetricNamesOutsideTheAllowedAlphabetAreRejected) {
  for (const char* good : {"wall_s", "memo.lut_ns.exact", "a-b_c.9", "0x",
                           "sim.dispatch_ms_per_job.remote"}) {
    EXPECT_TRUE(valid_metric_name(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/name", "quote\"", "uni\xc3\xa9", "semi;colon",
                          "tab\tname"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
    MetricSet m;
    EXPECT_THROW(m.add(bad, 1.0, "s"), std::invalid_argument) << bad;
  }
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(Report, MetricSetRejectsBadUnitsDuplicatesAndNonFiniteValues) {
  MetricSet m;
  m.add("jobs_per_s", 12.5, "jobs/s");
  EXPECT_THROW(m.add("jobs_per_s", 1.0, "jobs/s"), std::invalid_argument);
  EXPECT_THROW(m.add("x", 1.0, "a unit"), std::invalid_argument);
  EXPECT_THROW(m.add("y", std::nan(""), "s"), std::invalid_argument);
  EXPECT_EQ(m.to_json(),
            "{\"jobs_per_s\": {\"value\": 12.5, \"unit\": \"jobs/s\"}}");
  EXPECT_EQ(result_line(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"jobs_per_s\": {\"value\": 12.5, \"unit\": "
            "\"jobs/s\"}}}");
}

} // namespace
} // namespace perfbench

// MetricRegistry / HistogramSpec / MetricsSnapshot unit tests: lookup
// idempotence, name-collision rejection, exact bucket edges, and the
// commutative merge the campaign engine's determinism rests on.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "telemetry/exporters.hpp"

namespace tmemo::telemetry {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream os;
  write_metrics_json(s, os);
  return os.str();
}

// -- Registry ---------------------------------------------------------------

TEST(MetricRegistry, LookupsAreIdempotent) {
  MetricRegistry reg;
  Counter& c = reg.counter("sim.ops");
  c.add(2);
  EXPECT_EQ(&reg.counter("sim.ops"), &c);
  EXPECT_EQ(reg.counter("sim.ops").value(), 2u);

  Histogram& h = reg.histogram("lat", HistogramSpec::log2());
  EXPECT_EQ(&reg.histogram("lat", HistogramSpec::log2()), &h);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, NameCollisionAcrossKindsThrows) {
  MetricRegistry reg;
  reg.counter("m").add();
  EXPECT_THROW((void)reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("m", HistogramSpec::log2()),
               std::invalid_argument);

  reg.gauge("g").set(1);
  EXPECT_THROW((void)reg.counter("g"), std::invalid_argument);

  reg.histogram("h", HistogramSpec::log2()).record(1);
  EXPECT_THROW((void)reg.counter("h"), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("h"), std::invalid_argument);
}

TEST(MetricRegistry, HistogramSpecCollisionThrows) {
  MetricRegistry reg;
  reg.histogram("h", HistogramSpec::linear(0, 10, 5)).record(3);
  EXPECT_NO_THROW((void)reg.histogram("h", HistogramSpec::linear(0, 10, 5)));
  EXPECT_THROW((void)reg.histogram("h", HistogramSpec::linear(0, 10, 2)),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("h", HistogramSpec::log2()),
               std::invalid_argument);
}

// -- HistogramSpec ----------------------------------------------------------

TEST(HistogramSpec, LinearBucketEdgesAreExact) {
  const HistogramSpec s = HistogramSpec::linear(0, 64, 8); // width 8
  EXPECT_EQ(s.bucket_count(), 9u); // 8 + overflow
  EXPECT_EQ(s.index(0), 0u);
  EXPECT_EQ(s.index(7), 0u);
  EXPECT_EQ(s.index(8), 1u);  // edges are [lo, hi)
  EXPECT_EQ(s.index(63), 7u);
  EXPECT_EQ(s.index(64), 8u); // first out-of-range value -> overflow
  EXPECT_EQ(s.index(kU64Max), 8u);
  EXPECT_EQ(s.bucket_lo(0), 0u);
  EXPECT_EQ(s.bucket_hi(0), 8u);
  EXPECT_EQ(s.bucket_lo(7), 56u);
  EXPECT_EQ(s.bucket_hi(7), 64u);
  EXPECT_EQ(s.bucket_lo(8), 64u);
  EXPECT_EQ(s.bucket_hi(8), kU64Max);
}

TEST(HistogramSpec, LinearValuesBelowLoClampIntoBucketZero) {
  const HistogramSpec s = HistogramSpec::linear(10, 20, 5); // width 2
  EXPECT_EQ(s.index(0), 0u);
  EXPECT_EQ(s.index(10), 0u);
  EXPECT_EQ(s.index(11), 0u);
  EXPECT_EQ(s.index(12), 1u);
  EXPECT_EQ(s.index(19), 4u);
  EXPECT_EQ(s.index(20), 5u);
  EXPECT_EQ(s.bucket_lo(1), 12u);
  EXPECT_EQ(s.bucket_hi(1), 14u);
}

TEST(HistogramSpec, LinearRejectsMalformedShapes) {
  EXPECT_THROW((void)HistogramSpec::linear(5, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)HistogramSpec::linear(6, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)HistogramSpec::linear(0, 10, 0), std::invalid_argument);
  // 10 does not divide by 3: edges would not be exact integers.
  EXPECT_THROW((void)HistogramSpec::linear(0, 10, 3), std::invalid_argument);
}

TEST(HistogramSpec, Log2IndexIsBitWidth) {
  const HistogramSpec s = HistogramSpec::log2();
  EXPECT_EQ(s.bucket_count(), 65u);
  EXPECT_EQ(s.index(0), 0u);
  EXPECT_EQ(s.index(1), 1u);
  EXPECT_EQ(s.index(2), 2u);
  EXPECT_EQ(s.index(3), 2u);
  EXPECT_EQ(s.index(4), 3u);
  EXPECT_EQ(s.index(7), 3u);
  EXPECT_EQ(s.index(8), 4u);
  EXPECT_EQ(s.index(kU64Max), 64u);
  EXPECT_EQ(s.bucket_lo(0), 0u);
  EXPECT_EQ(s.bucket_hi(0), 1u);
  EXPECT_EQ(s.bucket_lo(3), 4u);
  EXPECT_EQ(s.bucket_hi(3), 8u);
  EXPECT_EQ(s.bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(s.bucket_hi(64), kU64Max);
}

TEST(Histogram, RecordTracksMomentsAndEmptyMinIsZero) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", HistogramSpec::log2());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u); // not uint64 max
  EXPECT_EQ(h.max(), 0u);
  h.record(1);
  h.record(4);
  h.record(9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 14u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_EQ(h.buckets()[h.spec().index(1)], 1u); // [1,1]
  EXPECT_EQ(h.buckets()[h.spec().index(4)], 1u); // [4,7]
  EXPECT_EQ(h.buckets()[h.spec().index(9)], 1u); // [8,15]
}

TEST(Histogram, RecordCountEqualsRepeatedRecords) {
  // Linear with overflow and clamping, and log2, over values that hit the
  // first, a middle and the overflow/top bucket.
  for (const HistogramSpec& spec :
       {HistogramSpec::linear(10, 70, 6), HistogramSpec::log2()}) {
    MetricRegistry reg;
    Histogram& batched = reg.histogram("batched", spec);
    Histogram& single = reg.histogram("single", spec);
    const std::pair<std::uint64_t, std::uint64_t> samples[] = {
        {4, 1}, {12, 3}, {64, 7}, {69, 2}, {70, 5}, {1u << 20, 4}, {0, 2}};
    for (const auto& [v, n] : samples) {
      batched.record(v, n);
      for (std::uint64_t i = 0; i < n; ++i) single.record(v);
    }
    EXPECT_EQ(batched.buckets(), single.buckets());
    EXPECT_EQ(batched.count(), single.count());
    EXPECT_EQ(batched.sum(), single.sum());
    EXPECT_EQ(batched.min(), single.min());
    EXPECT_EQ(batched.max(), single.max());
  }
}

TEST(Histogram, RecordZeroCountChangesNothing) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", HistogramSpec::log2());
  h.record(7, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (std::uint64_t b : h.buckets()) EXPECT_EQ(b, 0u);

  // Nor does it move min/max of a populated histogram.
  h.record(5, 2);
  h.record(1, 0);
  h.record(100, 0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 5u);
}

// -- Snapshot merge ---------------------------------------------------------

MetricsSnapshot make_shard(std::uint64_t counter_v, std::uint64_t gauge_v,
                           std::uint64_t sample) {
  MetricRegistry reg;
  reg.counter("ops").add(counter_v);
  reg.gauge("depth").set(gauge_v);
  reg.histogram("lat", HistogramSpec::linear(0, 8, 4)).record(sample);
  return reg.snapshot();
}

TEST(MetricsSnapshot, MergeAddsCountersMaxesGaugesFoldsHistograms) {
  MetricsSnapshot a = make_shard(3, 2, 1);
  const MetricsSnapshot b = make_shard(5, 7, 6);
  a.merge(b);
  ASSERT_NE(a.find_counter("ops"), nullptr);
  EXPECT_EQ(a.find_counter("ops")->value, 8u);
  EXPECT_EQ(a.find_gauge("depth")->value, 7u); // max, not sum
  const auto* h = a.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 7u);
  EXPECT_EQ(h->min, 1u);
  EXPECT_EQ(h->max, 6u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[3], 1u);
}

TEST(MetricsSnapshot, MergeIsCommutativeAndAssociative) {
  const MetricsSnapshot s1 = make_shard(1, 10, 0);
  const MetricsSnapshot s2 = make_shard(2, 20, 3);
  const MetricsSnapshot s3 = make_shard(4, 5, 7);

  MetricsSnapshot left = s1;   // (s1 + s2) + s3
  left.merge(s2);
  left.merge(s3);
  MetricsSnapshot right = s3;  // s3 + (s2 + s1), fully reversed
  right.merge(s2);
  right.merge(s1);
  // Byte-identical exports == bit-identical aggregates.
  EXPECT_EQ(to_json(left), to_json(right));
}

TEST(MetricsSnapshot, MergeUnionsDisjointNamesSorted) {
  MetricRegistry ra;
  ra.counter("b").add(1);
  MetricRegistry rb;
  rb.counter("a").add(2);
  rb.counter("c").add(3);
  MetricsSnapshot s = ra.snapshot();
  s.merge(rb.snapshot());
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].name, "a");
  EXPECT_EQ(s.counters[1].name, "b");
  EXPECT_EQ(s.counters[2].name, "c");
  EXPECT_EQ(s.find_counter("nope"), nullptr);
}

TEST(MetricsSnapshot, MergeRejectsConflictingHistogramSpecs) {
  MetricRegistry ra;
  ra.histogram("h", HistogramSpec::linear(0, 8, 4)).record(1);
  MetricRegistry rb;
  rb.histogram("h", HistogramSpec::log2()).record(1);
  MetricsSnapshot s = ra.snapshot();
  EXPECT_THROW(s.merge(rb.snapshot()), std::invalid_argument);
}

} // namespace
} // namespace tmemo::telemetry

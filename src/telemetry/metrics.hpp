// MetricRegistry: named Counter / Gauge / Histogram instruments with a
// deterministic, order-independent merge.
//
// Determinism contract: every instrument value is an unsigned 64-bit
// integer. Counters and histogram buckets merge by addition, gauges by
// maximum — both commutative and associative over uint64 — so merging the
// per-run snapshots of a campaign in ANY composition yields bit-identical
// aggregates for any worker count (this is tested across TM_JOBS in
// tests/telemetry/sim_metrics_test.cpp). Floating-point accumulation is
// deliberately excluded: it is not associative. Derived ratios (hit rates,
// averages) are computed by consumers at presentation time.
//
// Instruments can only be created through a MetricRegistry (constructors
// are private): the registry owns naming, collision detection and snapshot
// extraction. Lint rule R7 (`telemetry-registry`) enforces the same
// invariant textually outside src/telemetry/.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tmemo::telemetry {

class MetricRegistry;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class MetricRegistry;
  Counter() = default;

  std::uint64_t value_ = 0;
};

/// Last-written (or high-water) value. Merges by maximum, which makes a
/// gauge snapshot order-independent; use it for configuration echoes
/// (lut_depth, compute_units) and peaks, not for sums.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class MetricRegistry;
  Gauge() = default;

  std::uint64_t value_ = 0;
};

/// Bucketing scheme of a histogram. Two shapes cover the repo's needs:
///  * linear(lo, hi, n) — n equal-width buckets over [lo, hi) plus one
///    overflow bucket for v >= hi; values below lo clamp into bucket 0.
///    (hi - lo) must divide evenly by n.
///  * log2() — bucket index is bit_width(v): 0, [1,1], [2,3], [4,7], …
///    65 buckets total, covering the full uint64 range.
struct HistogramSpec {
  enum class Scale : std::uint8_t { kLinear, kLog2 };

  [[nodiscard]] static HistogramSpec linear(std::uint64_t lo, std::uint64_t hi,
                                            std::uint32_t buckets);
  [[nodiscard]] static HistogramSpec log2();

  [[nodiscard]] std::size_t bucket_count() const noexcept;
  [[nodiscard]] std::size_t index(std::uint64_t v) const noexcept {
    if (scale == Scale::kLog2) {
      return static_cast<std::size_t>(std::bit_width(v));
    }
    if (v < lo) return 0;
    if (v >= hi) return linear_buckets; // overflow bucket
    const std::uint64_t width = (hi - lo) / linear_buckets;
    return static_cast<std::size_t>((v - lo) / width);
  }
  /// Inclusive lower bound of bucket i.
  [[nodiscard]] std::uint64_t bucket_lo(std::size_t i) const noexcept;
  /// Exclusive upper bound of bucket i (uint64 max for the overflow/top
  /// bucket).
  [[nodiscard]] std::uint64_t bucket_hi(std::size_t i) const noexcept;

  [[nodiscard]] bool operator==(const HistogramSpec&) const = default;

  Scale scale = Scale::kLog2;
  std::uint64_t lo = 0;          ///< linear only
  std::uint64_t hi = 0;          ///< linear only
  std::uint32_t linear_buckets = 0; ///< linear only (excl. overflow)
};

/// Fixed-bucket distribution of uint64 samples.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    ++buckets_[spec_.index(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  /// `n` samples of value `v`: the same state as n record(v) calls (n == 0
  /// changes nothing).
  void record(std::uint64_t v, std::uint64_t n) noexcept {
    if (n == 0) return;
    buckets_[spec_.index(v)] += n;
    count_ += n;
    sum_ += v * n;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] const HistogramSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  /// Smallest recorded sample (0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

 private:
  friend class MetricRegistry;
  explicit Histogram(const HistogramSpec& spec)
      : spec_(spec), buckets_(spec.bucket_count(), 0) {}

  HistogramSpec spec_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Value-only view of a registry, detached from the instruments: what runs
/// return, campaigns merge, and exporters serialize. Vectors are sorted by
/// name (the registry's map order), which every writer relies on.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSpec spec;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Folds `other` into this snapshot: counters and histogram buckets add,
  /// gauges take the maximum, names union. Commutative and associative.
  /// Throws std::invalid_argument when one name carries two different
  /// histogram specs.
  void merge(const MetricsSnapshot& other);

  // Name lookups (nullptr when absent); linear scans over sorted vectors.
  [[nodiscard]] const CounterValue* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view name) const;
};

/// Owner and namespace of instruments. Lookups by name are idempotent: the
/// same (name, kind[, spec]) returns the same instrument; re-registering a
/// name as a different kind or with a different histogram spec throws
/// std::invalid_argument. Not thread-safe: one registry belongs to one run.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const HistogramSpec& spec);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Copies every instrument's current value out, sorted by name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    // Exactly one is non-null; unique_ptr keeps instrument addresses stable
    // across map rehash-free but node-moving operations.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::map<std::string, Entry, std::less<>> entries_;
};

} // namespace tmemo::telemetry

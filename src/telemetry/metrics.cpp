#include "telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace tmemo::telemetry {

// -- HistogramSpec -----------------------------------------------------------

HistogramSpec HistogramSpec::linear(std::uint64_t lo, std::uint64_t hi,
                                    std::uint32_t buckets) {
  if (hi <= lo) {
    throw std::invalid_argument("HistogramSpec::linear: hi must exceed lo");
  }
  if (buckets == 0) {
    throw std::invalid_argument(
        "HistogramSpec::linear: need at least one bucket");
  }
  if ((hi - lo) % buckets != 0) {
    throw std::invalid_argument(
        "HistogramSpec::linear: (hi - lo) must divide evenly by the bucket "
        "count, so bucket edges are exact integers");
  }
  HistogramSpec s;
  s.scale = Scale::kLinear;
  s.lo = lo;
  s.hi = hi;
  s.linear_buckets = buckets;
  return s;
}

HistogramSpec HistogramSpec::log2() {
  HistogramSpec s;
  s.scale = Scale::kLog2;
  return s;
}

std::size_t HistogramSpec::bucket_count() const noexcept {
  // log2: index = bit_width(v) in 0..64. linear: n buckets + overflow.
  return scale == Scale::kLog2 ? 65u
                               : static_cast<std::size_t>(linear_buckets) + 1u;
}

std::uint64_t HistogramSpec::bucket_lo(std::size_t i) const noexcept {
  if (scale == Scale::kLog2) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  if (i >= linear_buckets) return hi; // overflow bucket
  const std::uint64_t width = (hi - lo) / linear_buckets;
  return lo + width * i;
}

std::uint64_t HistogramSpec::bucket_hi(std::size_t i) const noexcept {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (scale == Scale::kLog2) {
    return i >= 64 ? kMax : std::uint64_t{1} << i;
  }
  if (i >= linear_buckets) return kMax; // overflow bucket
  const std::uint64_t width = (hi - lo) / linear_buckets;
  return lo + width * (i + 1);
}

// -- MetricRegistry ----------------------------------------------------------

Counter& MetricRegistry::counter(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.counter.reset(new Counter());
  } else if (!it->second.counter) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered as a different kind");
  }
  return *it->second.counter;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.gauge.reset(new Gauge());
  } else if (!it->second.gauge) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered as a different kind");
  }
  return *it->second.gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     const HistogramSpec& spec) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.histogram.reset(new Histogram(spec));
    return *it->second.histogram;
  }
  if (!it->second.histogram) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered as a different kind");
  }
  if (!(it->second.histogram->spec() == spec)) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' re-registered with a different spec");
  }
  return *it->second.histogram;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter) {
      out.counters.push_back({name, entry.counter->value()});
    } else if (entry.gauge) {
      out.gauges.push_back({name, entry.gauge->value()});
    } else if (entry.histogram) {
      const Histogram& h = *entry.histogram;
      out.histograms.push_back({name, h.spec(), h.buckets(), h.count(),
                                h.sum(), h.min(), h.max()});
    }
  }
  return out;
}

// -- MetricsSnapshot ---------------------------------------------------------

namespace {

// Merges two name-sorted vectors; `fold` combines same-name values in place.
template <typename T, typename Fold>
void merge_sorted(std::vector<T>& into, const std::vector<T>& from,
                  Fold&& fold) {
  std::vector<T> out;
  out.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() && b != from.end()) {
    if (a->name < b->name) {
      out.push_back(std::move(*a++));
    } else if (b->name < a->name) {
      out.push_back(*b++);
    } else {
      fold(*a, *b);
      out.push_back(std::move(*a++));
      ++b;
    }
  }
  out.insert(out.end(), std::make_move_iterator(a),
             std::make_move_iterator(into.end()));
  out.insert(out.end(), b, from.end());
  into = std::move(out);
}

} // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_sorted(counters, other.counters,
               [](CounterValue& a, const CounterValue& b) {
                 a.value += b.value;
               });
  merge_sorted(gauges, other.gauges, [](GaugeValue& a, const GaugeValue& b) {
    a.value = std::max(a.value, b.value);
  });
  merge_sorted(histograms, other.histograms,
               [](HistogramValue& a, const HistogramValue& b) {
                 if (!(a.spec == b.spec)) {
                   throw std::invalid_argument(
                       "MetricsSnapshot::merge: histogram '" + a.name +
                       "' has conflicting specs");
                 }
                 for (std::size_t i = 0; i < a.buckets.size(); ++i) {
                   a.buckets[i] += b.buckets[i];
                 }
                 if (b.count > 0) {
                   a.min = a.count == 0 ? b.min : std::min(a.min, b.min);
                   a.max = std::max(a.max, b.max);
                 }
                 a.count += b.count;
                 a.sum += b.sum;
               });
}

namespace {
template <typename T>
const T* find_by_name(const std::vector<T>& v, std::string_view name) {
  for (const T& x : v) {
    if (x.name == name) return &x;
  }
  return nullptr;
}
} // namespace

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const {
  return find_by_name(gauges, name);
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

} // namespace tmemo::telemetry

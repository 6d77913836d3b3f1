// The benchmark's output: named metrics with units, the run manifest, and
// the one-line JSON result the benchmark prints last.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// True when `unit` is 1..16 characters of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_metric_unit(std::string_view unit) noexcept;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order. add() rejects malformed names and units,
/// duplicates and non-finite values with std::invalid_argument.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with round-trippable values.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

/// Who built and ran the benchmark: attached to every file it writes.
struct Manifest {
  std::string git_describe;
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
  long nproc = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> argv;

  [[nodiscard]] std::string to_json() const;
};

/// The manifest of this build and process (compiler, flags and build type
/// are baked in by the benchmark's CMakeLists.txt).
[[nodiscard]] Manifest make_manifest(std::string git_describe,
                                     std::uint64_t seed, int argc,
                                     char** argv);

/// The final result line:
/// {"correct": b, "attempted": n, "failed": n, "metrics": {...}}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const MetricSet& metrics);

/// JSON string literal (quotes included) with control characters escaped.
[[nodiscard]] std::string json_string(std::string_view text);

/// Round-trippable decimal text of a finite double.
[[nodiscard]] std::string json_number(double value);

} // namespace perfbench

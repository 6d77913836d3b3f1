// Order statistics for the benchmark's reported figures.
//
// Every end-to-end metric is the median of the repetitions made in one run;
// percentiles summarise per-job and per-append latency samples. quartiles()
// follows Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), so the quartiles the benchmark prints are the ones a caller
// computes with the standard library.
#pragma once

#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Median of `values`; throws std::invalid_argument when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The three cut points of statistics.quantiles(values, n=4). Needs at
/// least two values (as Python does); throws std::invalid_argument otherwise.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Linear-interpolation percentile (p in [0, 100]) between closest ranks,
/// as numpy.percentile computes it by default. Throws when `values` is
/// empty or p is out of range.
[[nodiscard]] double percentile(std::vector<double> values, double p);

} // namespace perfbench

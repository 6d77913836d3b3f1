#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  constexpr long n = 4;
  double cut[3] = {};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

} // namespace perfbench

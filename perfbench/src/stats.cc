#include <algorithm>
#include <cmath>

#include "bench.h"

namespace perfbench {

namespace {

std::size_t NearestRank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t CountBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

}  // namespace perfbench

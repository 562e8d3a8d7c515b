#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::optional<TailPercentile> highest_supported_percentile(
    std::span<const double> values, std::size_t min_beyond) {
  std::optional<TailPercentile> best;
  const auto n = static_cast<double>(values.size());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    // Compare in whole samples so 1000 * (1 - 0.99) = 10 counts as 10.
    const double beyond = std::round(n * (100.0 - p) * 10.0) / 1000.0;
    if (beyond < static_cast<double>(min_beyond)) break;
    best = TailPercentile{
        p, quantile(std::vector<double>(values.begin(), values.end()),
                    p / 100.0),
        values.size()};
  }
  return best;
}

std::int64_t self_time(Interval parent, std::span<const Interval> children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    const Interval x{std::max(c.begin, parent.begin),
                     std::min(c.end, parent.end)};
    if (x.length() > 0) clipped.push_back(x);
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.begin;
  for (const Interval& c : clipped) {
    const std::int64_t from = std::max(c.begin, reach);
    if (c.end > from) covered += c.end - from;
    reach = std::max(reach, c.end);
  }
  return parent.length() - covered;
}

double unattributed_share(double wall, std::span<const double> self_times) {
  if (wall <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double s : self_times) sum += s;
  return (wall - sum) / wall;
}

double failure_share(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench

// The benchmark's own arithmetic: order statistics, span self time, the
// unattributed remainder of a traced run and failure shares. Kept free of
// SEAFL types so selftest.cpp can pin every formula on hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of `values`, the estimator
/// Python's statistics.quantiles(method="inclusive") and numpy's default
/// use. Throws std::invalid_argument on an empty input.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// A tail percentile and how many samples support it.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of p50, p90, p99, p99.9 that has at least `min_beyond`
/// samples above it (n * (1 - p/100) >= min_beyond); nullopt when even the
/// median lacks that support.
std::optional<TailPercentile> highest_supported_percentile(
    std::span<const double> values, std::size_t min_beyond = 10);

/// A closed-open interval on one thread's monotonic clock, nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t length() const { return end > begin ? end - begin : 0; }
};

/// Self time of `parent`: its length minus the part of it covered by the
/// union of `children` (children may overlap each other and stick out of
/// the parent; only the covered part of the parent counts).
std::int64_t self_time(Interval parent, std::span<const Interval> children);

/// Share of `wall` that no layer accounts for: (wall - sum(self)) / wall.
/// Negative when the layers over-count (a measurement error to report, not
/// to clamp).
double unattributed_share(double wall, std::span<const double> self_times);

/// failed / attempted, 0 when nothing was attempted.
double failure_share(std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench

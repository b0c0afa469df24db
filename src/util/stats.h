/**
 * @file
 * Statistics helpers used by the evaluation harnesses: means, geometric
 * means, dispersion and extremes.
 */

#ifndef ACT_UTIL_STATS_H
#define ACT_UTIL_STATS_H

#include <cstddef>
#include <span>
#include <vector>

namespace act::util {

/** Arithmetic mean; fatal on an empty input. */
double mean(std::span<const double> values);

/**
 * Geometric mean; fatal on an empty input or any non-positive value.
 * Used to aggregate per-workload speedups exactly as the paper does.
 */
double geomean(std::span<const double> values);

/** Population standard deviation. */
double stddev(std::span<const double> values);

/** Smallest / largest element; fatal on an empty input. */
double minValue(std::span<const double> values);
double maxValue(std::span<const double> values);

/** Index of the smallest / largest element; fatal on an empty input. */
std::size_t argmin(std::span<const double> values);
std::size_t argmax(std::span<const double> values);

/** Normalize each element by the given baseline value. */
std::vector<double> normalizeBy(std::span<const double> values,
                                double baseline);

} // namespace act::util

#endif // ACT_UTIL_STATS_H

/**
 * @file
 * The geometric mean the evaluation harnesses aggregate speedups with.
 */

#ifndef ACT_UTIL_STATS_H
#define ACT_UTIL_STATS_H

#include <span>

namespace act::util {

/**
 * Geometric mean; fatal on an empty input or any non-positive value.
 * Used to aggregate per-workload speedups exactly as the paper does.
 */
double geomean(std::span<const double> values);

} // namespace act::util

#endif // ACT_UTIL_STATS_H

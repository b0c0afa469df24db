/**
 * @file
 * Small string utilities shared across the library: case folding,
 * prefix tests, and numeric formatting for report output.
 */

#ifndef ACT_UTIL_STRINGS_H
#define ACT_UTIL_STRINGS_H

#include <string>
#include <string_view>

namespace act::util {

/** ASCII lower-case copy. */
std::string toLower(std::string_view text);

/** True when @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** Format with fixed decimal places, e.g. formatFixed(1.234, 2) -> "1.23". */
std::string formatFixed(double value, int decimals);

/**
 * Format with a fixed number of significant digits, choosing fixed or
 * scientific notation based on magnitude; used for table output.
 */
std::string formatSig(double value, int significant_digits);

} // namespace act::util

#endif // ACT_UTIL_STRINGS_H

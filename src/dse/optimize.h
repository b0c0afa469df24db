/**
 * @file
 * Constrained selection primitives for the case studies:
 *  - QoS-driven design (Fig. 13 left): minimize embodied carbon subject
 *    to a minimum throughput,
 *  - resource-budget design (Fig. 13 right): minimize carbon subject to
 *    a maximum area,
 * plus sweep-range generators for the bench harness.
 */

#ifndef ACT_DSE_OPTIMIZE_H
#define ACT_DSE_OPTIMIZE_H

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace act::dse {

/**
 * Index minimizing @p objective among points whose @p constraint is at
 * least @p minimum; nullopt when no point qualifies. Spans must be
 * equally sized (fatal otherwise).
 */
std::optional<std::size_t>
minimizeSubjectToAtLeast(std::span<const double> objective,
                         std::span<const double> constraint,
                         double minimum);

/** As above but with the constraint bounded from above. */
std::optional<std::size_t>
minimizeSubjectToAtMost(std::span<const double> objective,
                        std::span<const double> constraint,
                        double maximum);

/** @p steps evenly spaced values from @p lo to @p hi inclusive. */
std::vector<double> linearRange(double lo, double hi, std::size_t steps);

/** @p steps log-evenly spaced values from @p lo to @p hi inclusive. */
std::vector<double> geometricRange(double lo, double hi,
                                   std::size_t steps);

/** Powers of two from @p lo to @p hi inclusive (both powers of two). */
std::vector<int> powersOfTwo(int lo, int hi);

} // namespace act::dse

#endif // ACT_DSE_OPTIMIZE_H

/**
 * @file
 * Pareto-frontier extraction for two-objective design-space
 * exploration (all objectives minimized). Used by the case studies to
 * show which hardware configurations are jointly optimal in, e.g.,
 * (delay, embodied carbon) space.
 */

#ifndef ACT_DSE_PARETO_H
#define ACT_DSE_PARETO_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace act::dse {

/** A named point in a two-objective (minimize, minimize) space. */
struct Point2D
{
    std::string name;
    double x = 0.0;
    double y = 0.0;
};

/** True when @p a dominates @p b (<= everywhere, < somewhere). */
bool dominates(const Point2D &a, const Point2D &b);

/**
 * Indices of the non-dominated points, sorted by ascending x.
 * Duplicate points are all kept (none dominates the other).
 */
std::vector<std::size_t> paretoFrontier(std::span<const Point2D> points);

} // namespace act::dse

#endif // ACT_DSE_PARETO_H

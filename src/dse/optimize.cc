#include "dse/optimize.h"

#include <cmath>

#include "util/logging.h"

namespace act::dse {

namespace {

void
checkSizes(std::span<const double> objective,
           std::span<const double> constraint)
{
    if (objective.size() != constraint.size())
        util::fatal("objective/constraint size mismatch");
    if (objective.empty())
        util::fatal("constrained selection over an empty design space");
}

} // namespace

std::optional<std::size_t>
minimizeSubjectToAtLeast(std::span<const double> objective,
                         std::span<const double> constraint, double minimum)
{
    checkSizes(objective, constraint);
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < objective.size(); ++i) {
        if (constraint[i] < minimum)
            continue;
        if (!best || objective[i] < objective[*best])
            best = i;
    }
    return best;
}

std::optional<std::size_t>
minimizeSubjectToAtMost(std::span<const double> objective,
                        std::span<const double> constraint, double maximum)
{
    checkSizes(objective, constraint);
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < objective.size(); ++i) {
        if (constraint[i] > maximum)
            continue;
        if (!best || objective[i] < objective[*best])
            best = i;
    }
    return best;
}

std::vector<double>
linearRange(double lo, double hi, std::size_t steps)
{
    if (steps < 2)
        util::fatal("linearRange() needs at least 2 steps");
    std::vector<double> values;
    values.reserve(steps);
    const double delta = (hi - lo) / static_cast<double>(steps - 1);
    for (std::size_t i = 0; i < steps; ++i)
        values.push_back(lo + delta * static_cast<double>(i));
    return values;
}

std::vector<double>
geometricRange(double lo, double hi, std::size_t steps)
{
    if (steps < 2)
        util::fatal("geometricRange() needs at least 2 steps");
    if (lo <= 0.0 || hi <= 0.0)
        util::fatal("geometricRange() requires positive bounds");
    std::vector<double> values;
    values.reserve(steps);
    const double ratio =
        std::pow(hi / lo, 1.0 / static_cast<double>(steps - 1));
    double value = lo;
    for (std::size_t i = 0; i < steps; ++i) {
        values.push_back(value);
        value *= ratio;
    }
    return values;
}

std::vector<int>
powersOfTwo(int lo, int hi)
{
    if (lo <= 0 || hi < lo)
        util::fatal("powersOfTwo() requires 0 < lo <= hi");
    const auto is_power = [](int v) { return (v & (v - 1)) == 0; };
    if (!is_power(lo) || !is_power(hi))
        util::fatal("powersOfTwo() bounds must be powers of two");
    std::vector<int> values;
    for (int v = lo; v <= hi; v *= 2)
        values.push_back(v);
    return values;
}

} // namespace act::dse

#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace act::util {

double
mean(std::span<const double> values)
{
    if (values.empty())
        fatal("mean() of an empty range");
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
geomean(std::span<const double> values)
{
    if (values.empty())
        fatal("geomean() of an empty range");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal("geomean() requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
stddev(std::span<const double> values)
{
    const double mu = mean(values);
    double sq_sum = 0.0;
    for (double v : values)
        sq_sum += (v - mu) * (v - mu);
    return std::sqrt(sq_sum / static_cast<double>(values.size()));
}

double
minValue(std::span<const double> values)
{
    if (values.empty())
        fatal("minValue() of an empty range");
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(std::span<const double> values)
{
    if (values.empty())
        fatal("maxValue() of an empty range");
    return *std::max_element(values.begin(), values.end());
}

std::size_t
argmin(std::span<const double> values)
{
    if (values.empty())
        fatal("argmin() of an empty range");
    return static_cast<std::size_t>(
        std::min_element(values.begin(), values.end()) - values.begin());
}

std::size_t
argmax(std::span<const double> values)
{
    if (values.empty())
        fatal("argmax() of an empty range");
    return static_cast<std::size_t>(
        std::max_element(values.begin(), values.end()) - values.begin());
}

std::vector<double>
normalizeBy(std::span<const double> values, double baseline)
{
    if (baseline == 0.0)
        fatal("normalizeBy() with a zero baseline");
    std::vector<double> out;
    out.reserve(values.size());
    for (double v : values)
        out.push_back(v / baseline);
    return out;
}

} // namespace act::util

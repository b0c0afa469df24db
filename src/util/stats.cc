#include "util/stats.h"

#include <cmath>

#include "util/logging.h"

namespace act::util {

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

} // namespace act::util

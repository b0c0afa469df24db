#include "util/interp.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace act::util {

double
lerp(double a, double b, double t)
{
    return a + (b - a) * t;
}

PiecewiseLinear::PiecewiseLinear(
    std::vector<std::pair<double, double>> points, bool log_x,
    OutOfRange policy)
    : points_(std::move(points)), log_x_(log_x), policy_(policy)
{
    if (points_.empty())
        fatal("PiecewiseLinear requires at least one breakpoint");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (points_[i].first <= points_[i - 1].first) {
            fatal("PiecewiseLinear breakpoints must be strictly "
                  "increasing in x");
        }
    }
    if (log_x_ && points_.front().first <= 0.0)
        fatal("log-x interpolation requires positive x breakpoints");
}

double
PiecewiseLinear::transform(double x) const
{
    return log_x_ ? std::log(x) : x;
}

double
PiecewiseLinear::at(double x) const
{
    if (points_.size() == 1)
        return points_.front().second;

    if (x <= points_.front().first) {
        if (policy_ == OutOfRange::Clamp)
            return points_.front().second;
        const auto &[x0, y0] = points_[0];
        const auto &[x1, y1] = points_[1];
        const double t = (transform(x) - transform(x0)) /
                         (transform(x1) - transform(x0));
        return lerp(y0, y1, t);
    }
    if (x >= points_.back().first) {
        if (policy_ == OutOfRange::Clamp)
            return points_.back().second;
        const auto &[x0, y0] = points_[points_.size() - 2];
        const auto &[x1, y1] = points_.back();
        const double t = (transform(x) - transform(x0)) /
                         (transform(x1) - transform(x0));
        return lerp(y0, y1, t);
    }

    const auto upper = std::upper_bound(
        points_.begin(), points_.end(), x,
        [](double value, const auto &point) { return value < point.first; });
    const auto lower = upper - 1;
    const double t = (transform(x) - transform(lower->first)) /
                     (transform(upper->first) - transform(lower->first));
    return lerp(lower->second, upper->second, t);
}

} // namespace act::util

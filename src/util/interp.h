/**
 * @file
 * Interpolation helpers. The fab intensity tables (Table 7) anchor a
 * handful of process nodes; real chipsets sit between anchors (16 nm,
 * 12 nm, 8 nm), so the fab model interpolates. Both linear and
 * log-x-linear interpolation over sorted breakpoint tables are provided.
 */

#ifndef ACT_UTIL_INTERP_H
#define ACT_UTIL_INTERP_H

#include <span>
#include <utility>
#include <vector>

namespace act::util {

/** Linear interpolation between two points at parameter t in [0, 1]. */
double lerp(double a, double b, double t);

/**
 * A piecewise-linear curve over sorted (x, y) breakpoints.
 * Queries outside the domain clamp to the boundary value by default or
 * extrapolate linearly when configured to.
 */
class PiecewiseLinear
{
  public:
    enum class OutOfRange { Clamp, Extrapolate };

    /**
     * @param points breakpoints; must be non-empty and strictly
     *        increasing in x (fatal otherwise).
     * @param log_x interpolate against log(x) instead of x; suits
     *        process-node scaling where nodes span 3-28 nm.
     */
    PiecewiseLinear(std::vector<std::pair<double, double>> points,
                    bool log_x = false,
                    OutOfRange policy = OutOfRange::Clamp);

    /** Interpolated value at @p x. */
    double at(double x) const;

  private:
    std::vector<std::pair<double, double>> points_;
    bool log_x_;
    OutOfRange policy_;

    double transform(double x) const;
};

} // namespace act::util

#endif // ACT_UTIL_INTERP_H

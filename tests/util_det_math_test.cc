/**
 * @file
 * Accuracy of the libm-free detLog / detCos / detExp
 * (util/simd_kernels.h) against the host libm on dense grids over the
 * ranges the fleet job stream uses them on, plus the edge points of
 * those ranges. The bound is 2 ulp; the functions are ports of
 * fdlibm, which is within 1 ulp of the correctly rounded result, and
 * glibc is correctly rounded or nearly so, so 2 ulp leaves room for
 * both. Their bits do not depend on the libm they are checked
 * against: tests/util_simd_test.cc and the fleet tests pin them
 * across SIMD levels.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "util/simd_kernels.h"

namespace act::util::simd {
namespace {

constexpr std::int64_t kMaxUlps = 2;
constexpr int kGridPoints = 1 << 20;
constexpr double kPi = 3.14159265358979323846;

/** A double's bit pattern mapped onto a line where adjacent doubles
 *  differ by one, across the sign too. */
std::int64_t
orderedBits(double x)
{
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits
                    : bits;
}

/** Distance between @p a and @p b in units in the last place. */
std::int64_t
ulpDistance(double a, double b)
{
    const std::int64_t d = orderedBits(a) - orderedBits(b);
    return d < 0 ? -d : d;
}

/** Checks f against ref at @p x, within kMaxUlps. */
template <typename F, typename Ref>
void
expectClose(const char *name, F f, Ref ref, double x)
{
    const double got = f(x);
    const double want = ref(x);
    EXPECT_LE(ulpDistance(got, want), kMaxUlps)
        << name << "(" << std::hexfloat << x << ") = " << got
        << ", libm gives " << want;
}

/** Checks f against ref at kGridPoints + 1 points evenly spaced over
 *  [lo, hi] (geometrically when @p geometric), stopping at the first
 *  miss. Points at or past @p end are skipped, for half-open ranges. */
template <typename F, typename Ref>
void
expectCloseOnGrid(const char *name, F f, Ref ref, double lo, double hi,
                  bool geometric, double end)
{
    const double log_lo = std::log(lo);
    const double log_span = std::log(hi) - log_lo;
    for (int i = 0; i <= kGridPoints; ++i) {
        const double t = static_cast<double>(i) / kGridPoints;
        const double x = geometric ? std::exp(log_lo + t * log_span)
                                   : lo + t * (hi - lo);
        if (x >= end)
            continue;
        if (ulpDistance(f(x), ref(x)) > kMaxUlps) {
            expectClose(name, f, ref, x);
            return;
        }
    }
}

double
libmLog(double x)
{
    return std::log(x);
}

double
libmCos(double x)
{
    return std::cos(x);
}

double
libmExp(double x)
{
    return std::exp(x);
}

const double kInf = std::numeric_limits<double>::infinity();

TEST(DetMathTest, LogOnTheBoxMullerRadiusRange)
{
    // u1 is clamped to [1e-300, 1): geometric spacing covers every
    // binade, linear spacing the top binades densely.
    expectCloseOnGrid("detLog", detLog, libmLog, 1e-300, 1.0, true, 1.0);
    expectCloseOnGrid("detLog", detLog, libmLog, 0x1p-20, 1.0, false,
                      1.0);
    for (const double x : {1e-300, 0x1p-53, 1.0 - 0x1p-53, 0.5,
                           std::sqrt(0.5), 1.0 - 0x1p-20})
        expectClose("detLog", detLog, libmLog, x);
}

TEST(DetMathTest, LogOnSigmaFactors)
{
    // log(sigma factor), sigma > 1, is the job stream's other log.
    expectCloseOnGrid("detLog", detLog, libmLog, 1.0 + 0x1p-52, 1e300,
                      true, kInf);
    for (const double x : {1.0 + 0x1p-52, 1.5, 2.0, 2.5, 1e300,
                           std::numeric_limits<double>::max()})
        expectClose("detLog", detLog, libmLog, x);
    EXPECT_EQ(detLog(1.0), 0.0);
}

TEST(DetMathTest, CosOnTheBoxMullerAngleRange)
{
    expectCloseOnGrid("detCos", detCos, libmCos, 0.0, 2.0 * kPi, false,
                      kInf);
    // The doubles nearest the multiples of pi/2 (the zeros of cos at
    // the odd ones, where the reduced argument is ~1e-16), their
    // neighbours, and the largest angle 2 pi * u2 can reach.
    for (int k = 0; k <= 4; ++k) {
        const double x = k * (kPi / 2.0);
        for (const double probe :
             {x, std::nextafter(x, 0.0), std::nextafter(x, 8.0)})
            expectClose("detCos", detCos, libmCos, probe);
    }
    expectClose("detCos", detCos, libmCos, 2.0 * kPi * (1.0 - 0x1p-53));
    EXPECT_EQ(detCos(0.0), 1.0);
}

TEST(DetMathTest, ExpOnTheDurationExponentRange)
{
    expectCloseOnGrid("detExp", detExp, libmExp, -40.0, 40.0, false, kInf);
    // +-34: log(2.5) * sqrt(-2 log(1e-300)), the widest exponent the
    // u1 clamp allows at the default sigma factor.
    for (const double x : {-34.0, 34.0, -0.5 * std::log(2.0),
                           0.5 * std::log(2.0), 0x1p-30, -0x1p-30})
        expectClose("detExp", detExp, libmExp, x);
    EXPECT_EQ(detExp(0.0), 1.0);
}

TEST(DetMathTest, ExpSaturatesOutsideTheDoubleRange)
{
    expectClose("detExp", detExp, libmExp, 709.0);
    expectClose("detExp", detExp, libmExp, -708.0);
    EXPECT_EQ(detExp(710.0), kInf);
    EXPECT_EQ(detExp(1e6), kInf);
    EXPECT_EQ(detExp(-1e6), 0.0);
}

} // namespace
} // namespace act::util::simd

/**
 * @file
 * The scalar kernel table: the one-lane instantiation of the
 * templates the AVX2 tier instantiates at four lanes (the fleet
 * block kernel, the log-normal transform) and the scalar-width
 * detLog/detCos/detExp built from the same templates. It is the tier
 * every host can run and the one ACT_SIMD=scalar selects.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/simd_kernels.h"

namespace act::util::simd {

namespace {

#include "util/simd_kernels_impl.h"

/** The lane policy of simd_kernels_impl.h at one lane. */
struct LanesScalar
{
    static constexpr std::size_t kLanes = 1;
    using VF = double;
    using VI = std::uint64_t;

    static VF
    bcast(double v)
    {
        return v;
    }
    static VI
    bcastBits(std::uint64_t v)
    {
        return v;
    }
    static VF
    loadu(const double *p)
    {
        return *p;
    }
    static void
    storeu(double *p, VF v)
    {
        *p = v;
    }
    static VF
    add(VF a, VF b)
    {
        return a + b;
    }
    static VF
    sub(VF a, VF b)
    {
        return a - b;
    }
    static VF
    mul(VF a, VF b)
    {
        return a * b;
    }
    static VF
    div(VF a, VF b)
    {
        return a / b;
    }
    static VF
    sqrt(VF a)
    {
        return std::sqrt(a);
    }
    static VF
    blendLess(VF u, VF pivot, VF lo, VF hi)
    {
        return u < pivot ? lo : hi;
    }
    static VF
    min(VF a, VF b)
    {
        return a < b ? a : b;
    }
    static VI
    bits(VF v)
    {
        return std::bit_cast<VI>(v);
    }
    static VF
    fromBits(VI v)
    {
        return std::bit_cast<VF>(v);
    }
    static VI
    andBits(VI a, VI b)
    {
        return a & b;
    }
    static VI
    orBits(VI a, VI b)
    {
        return a | b;
    }
    static VI
    xorBits(VI a, VI b)
    {
        return a ^ b;
    }
    template <int k>
    static VI
    shl(VI v)
    {
        return v << k;
    }
    template <int k>
    static VI
    shr(VI v)
    {
        return v >> k;
    }
    static VF
    selectSign(VI m, VF a, VF b)
    {
        return (m >> 63) != 0 ? a : b;
    }
};

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        &fleetBlockT<LanesScalar>,
        &logNormalT<LanesScalar>,
    };
    return table;
}

double
detLog(double x)
{
    return detLogT<LanesScalar>(x);
}

double
detCos(double x)
{
    return detCosT<LanesScalar>(x);
}

double
detExp(double x)
{
    return detExpT<LanesScalar>(x);
}

} // namespace act::util::simd

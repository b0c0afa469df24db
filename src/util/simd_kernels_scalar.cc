/**
 * @file
 * The scalar kernel table: the semantic reference the AVX2 tier
 * must match bit-for-bit. The window-cost and argmin loops are
 * verbatim transcriptions of the fleet replayer's per-shift
 * window-cost and placement scans they replaced, so "matches the
 * scalar kernel" continues to mean "matches the pre-SIMD tree". The
 * log-normal kernel and detLog/detCos/detExp are the one-lane
 * instantiation of the same templates the AVX2 tier instantiates at
 * four lanes.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

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

void
windowCostsScalar(const WindowCostProblem &pr, double *out)
{
    // Verbatim transcription of the fleet replayer's per-shift
    // weightAt()/sumSamples() pair; see WindowCostProblem.
    const double *prefix = pr.prefix;
    const double *grams2x = pr.grams2x;
    const std::size_t n = pr.n;
    const bool tail = pr.tail_hours > 0.0;
    std::size_t s0 = pr.start0 % n;
    for (std::size_t k = 0; k < pr.count; ++k) {
        double sum = pr.base;
        if (s0 + pr.rem <= n)
            sum += prefix[s0 + pr.rem] - prefix[s0];
        else
            sum += (prefix[n] - prefix[s0]) + prefix[s0 + pr.rem - n];
        double weight = sum * pr.step;
        if (tail)
            weight += grams2x[s0 + pr.rem] * pr.tail_hours;
        out[k] = weight;
        if (++s0 == n)
            s0 = 0;
    }
}

std::size_t
argminFirstScalar(const double *p, std::size_t n)
{
    std::size_t best = 0;
    double best_value = p[0];
    for (std::size_t s = 1; s < n; ++s) {
        if (p[s] < best_value) {
            best_value = p[s];
            best = s;
        }
    }
    return best;
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        &windowCostsScalar,
        &argminFirstScalar,
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

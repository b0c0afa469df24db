/**
 * @file
 * The scalar kernel table: the semantic reference the AVX2 tier
 * must match bit-for-bit. These loops are verbatim transcriptions of
 * the fleet replayer's per-shift window-cost and placement scans they
 * replaced, so "matches the scalar kernel" continues to mean "matches
 * the pre-SIMD tree".
 */

#include <cstddef>

#include "util/simd_kernels.h"

namespace act::util::simd {

namespace {

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
    };
    return table;
}

} // namespace act::util::simd

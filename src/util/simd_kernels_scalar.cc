/**
 * @file
 * The scalar kernel table: the semantic reference the AVX2 tier
 * must match bit-for-bit. These loops are verbatim transcriptions of
 * the code they replaced -- Xorshift64Star::nextUnit() consumption,
 * the compiled Monte Carlo samplers, and the EvalPlan::evaluateBatch
 * compute loops -- so "matches the scalar kernel" continues to mean
 * "matches the pre-SIMD tree".
 */

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd_kernels.h"

namespace act::util::simd {

namespace {

std::uint64_t
fillUnitsScalar(std::uint64_t state, double *dst, std::size_t n)
{
    // Xorshift64Star::next() split into state update + output
    // multiply; the cast is exact (operand < 2^53).
    for (std::size_t i = 0; i < n; ++i) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        dst[i] = static_cast<double>(
                     (state * kXorshiftMultiplier) >> 11) *
                 0x1.0p-53;
    }
    return state;
}

void
transformUniformScalar(const double *units, std::size_t stride,
                       std::size_t n, const UniformTransform &tr,
                       double *out)
{
    for (std::size_t s = 0; s < n; ++s)
        out[s] = tr.a + tr.ba * units[s * stride];
}

void
transformTriangularScalar(const double *units, std::size_t stride,
                          std::size_t n, const TriangularTransform &tr,
                          double *out)
{
    for (std::size_t s = 0; s < n; ++s) {
        const double u = units[s * stride];
        if (u < tr.pivot)
            out[s] = tr.a + std::sqrt(u * tr.ba * tr.ca);
        else
            out[s] = tr.b - std::sqrt((1.0 - u) * tr.ba * tr.bc);
    }
}

void
evalRatioScalar(const RatioTerms &t, std::size_t n, double *out)
{
    const double *ci = t.ci.values;
    const double *epa = t.epa.values;
    const double *gpa = t.gpa.values;
    const double *mpa = t.mpa.values;
    const double *yield = t.yield.values;
    const double *abatement = t.abatement.values;
    const std::size_t ci_s = t.ci.column ? 1 : 0;
    const std::size_t epa_s = t.epa.column ? 1 : 0;
    const std::size_t gpa_s = t.gpa.column ? 1 : 0;
    const std::size_t mpa_s = t.mpa.column ? 1 : 0;
    const std::size_t yield_s = t.yield.column ? 1 : 0;
    const std::size_t ab_s = t.abatement.column ? 1 : 0;

    if (t.recompute_gpa) {
        for (std::size_t s = 0; s < n; ++s) {
            const double tt =
                (abatement[s * ab_s] - 0.95) / (0.99 - 0.95);
            // util::lerp then std::max(0.0, .), spelled out so this
            // translation unit stays dependency-free.
            const double raw = t.gpa95 + (t.gpa99 - t.gpa95) * tt;
            const double gpa_v = (0.0 < raw) ? raw : 0.0;
            out[s] = (ci[s * ci_s] * epa[s * epa_s] + gpa_v +
                      mpa[s * mpa_s]) /
                     yield[s * yield_s];
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s) {
        out[s] = (ci[s * ci_s] * epa[s * epa_s] + gpa[s * gpa_s] +
                  mpa[s * mpa_s]) /
                 yield[s * yield_s];
    }
}

void
jobUnitsScalar(const std::uint64_t *states, std::size_t jobs,
               std::size_t draws, double *out)
{
    // Per stream, exactly Xorshift64Star::nextUnit() `draws` times;
    // draw-major so each draw row is a contiguous column downstream.
    for (std::size_t j = 0; j < jobs; ++j) {
        std::uint64_t state = states[j];
        for (std::size_t d = 0; d < draws; ++d) {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            out[d * jobs + j] =
                static_cast<double>(
                    (state * kXorshiftMultiplier) >> 11) *
                0x1.0p-53;
        }
    }
}

void
powerGridKwScalar(const double *u, std::size_t n,
                  const PowerTransform &tr, double *out)
{
    // server::powerAtUtilization in watts folded into grid kW, the
    // fleet replayer's exact tree: idle + (peak - idle) * u, / 1000,
    // * pue, with span_w precomputed as the scalar sub.
    for (std::size_t s = 0; s < n; ++s)
        out[s] = (tr.idle_w + tr.span_w * u[s]) / 1000.0 * tr.pue;
}

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

bool
allWithinScalar(const double *p, std::size_t n, double lo, double hi,
                bool lo_exclusive)
{
    for (std::size_t s = 0; s < n; ++s) {
        const bool above = lo_exclusive ? (p[s] > lo) : (p[s] >= lo);
        if (!(above && p[s] <= hi))
            return false;
    }
    return true;
}

/** A 64x64 matrix over GF(2): col[j] is the image of basis bit j. */
struct BitMatrix
{
    std::uint64_t col[64];
};

/** y = M x over GF(2): XOR of the columns selected by x's bits. */
inline std::uint64_t
bitMatVec(const BitMatrix &m, std::uint64_t x)
{
    std::uint64_t y = 0;
    for (int j = 0; j < 64; ++j)
        y ^= m.col[j] & (0 - ((x >> j) & 1));
    return y;
}

/** C = A B over GF(2). */
inline BitMatrix
bitMatMul(const BitMatrix &a, const BitMatrix &b)
{
    BitMatrix c;
    for (int j = 0; j < 64; ++j)
        c.col[j] = bitMatVec(a, b.col[j]);
    return c;
}

/** A^steps where A is the xorshift64* state-update matrix. */
BitMatrix
xorshiftMatrixPower(std::uint64_t steps)
{
    BitMatrix result;
    BitMatrix base;
    for (int j = 0; j < 64; ++j) {
        // Identity, and the update applied to each basis vector. The
        // update is linear: XORs of shifts, no arithmetic carries.
        result.col[j] = std::uint64_t{1} << j;
        std::uint64_t x = std::uint64_t{1} << j;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        base.col[j] = x;
    }
    while (steps != 0) {
        if (steps & 1)
            result = bitMatMul(base, result);
        base = bitMatMul(base, base);
        steps >>= 1;
    }
    return result;
}

} // namespace

std::uint64_t
xorshiftJump(std::uint64_t state, std::uint64_t steps)
{
    // The fill kernels jump by the same distance (the segment length)
    // once per lane per call, and chunk sizes repeat across a sweep,
    // so a tiny per-thread cache turns the matrix power into a one-off
    // per distance. Round-robin replacement; 0 marks an empty slot
    // (jumping by 0 steps never reaches the cache).
    if (steps == 0)
        return state;
    struct CacheEntry
    {
        std::uint64_t steps = 0;
        BitMatrix matrix;
    };
    constexpr std::size_t kCacheSize = 4;
    thread_local CacheEntry cache[kCacheSize];
    thread_local std::size_t next_slot = 0;
    for (const CacheEntry &entry : cache) {
        if (entry.steps == steps)
            return bitMatVec(entry.matrix, state);
    }
    CacheEntry &slot = cache[next_slot];
    next_slot = (next_slot + 1) % kCacheSize;
    slot.steps = steps;
    slot.matrix = xorshiftMatrixPower(steps);
    return bitMatVec(slot.matrix, state);
}

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        &fillUnitsScalar,
        &transformUniformScalar,
        &transformTriangularScalar,
        &evalRatioScalar,
        &allWithinScalar,
        &jobUnitsScalar,
        &powerGridKwScalar,
        &windowCostsScalar,
        &argminFirstScalar,
    };
    return table;
}

} // namespace act::util::simd

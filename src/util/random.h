/**
 * @file
 * A small deterministic PRNG (xorshift64*) with the draws the library
 * needs: uniform reals and integers. Deterministic for a fixed seed
 * across platforms, unlike <random>'s distributions, so simulation
 * results and Monte Carlo percentiles are reproducible everywhere.
 * The fleet job stream's log-normal durations are a kernel over two
 * unit draws (util/simd_kernels.h), not a method here.
 */

#ifndef ACT_UTIL_RANDOM_H
#define ACT_UTIL_RANDOM_H

#include <cstdint>

namespace act::util {

/**
 * Derive the seed of an independent child stream from a base seed and
 * a stream index, via two rounds of the SplitMix64 finalizer. Chunk c
 * of a sweep (dse::monteCarlo, and every sweep/engine.h chunk) draws
 * from stream deriveSeed(seed, c) regardless of which thread or shard
 * runs it: the sampled sequence is a pure function of (seed, chunk
 * layout) and therefore independent of the thread count.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/** xorshift64* generator; passes BigCrush-level smoke tests and is
 *  ample for workload sampling and Monte Carlo. */
class Xorshift64Star
{
  public:
    /**
     * The `| 1` rejects the all-zero seed: zero is the fixed point of
     * the xorshift update (next() would return 0 forever), so seed 0
     * is remapped to 1. Seeds that already have their low bit set are
     * unchanged, and every historical output sequence is preserved.
     */
    explicit Xorshift64Star(std::uint64_t seed = 42)
        : state_(seed | 1)
    {}

    /** Next raw 64-bit value. Inline: this is the innermost call of
     *  every Monte Carlo sampling loop. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545F4914F6CDD1DULL;
    }

    /** Uniform in [0, 1). */
    double
    nextUnit()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound); fatal for bound == 0. Inline:
     *  the FTL simulator draws one per simulated write. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            zeroBoundFatal();
        return next() % bound;
    }

    /** Uniform real in [lo, hi). */
    double
    nextUniform(double lo, double hi)
    {
        return lo + (hi - lo) * nextUnit();
    }

  private:
    [[noreturn, gnu::cold]] static void zeroBoundFatal();

    std::uint64_t state_;
};

} // namespace act::util

#endif // ACT_UTIL_RANDOM_H

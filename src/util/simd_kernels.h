/**
 * @file
 * Internal kernel table behind util/simd.h: the fleet replayer's
 * window-cost and argmin kernels, the two loops where the hand-written
 * AVX2 tier measurably shortens an end-to-end run (DESIGN.md §11), as
 * per-level tables of function pointers: the scalar reference and the
 * 4-lane AVX2 tier. The problem descriptor is a plain POD so the
 * per-level translation units -- the AVX2 one is compiled with
 * -mavx2 -- depend on nothing above util. Every other batch loop in
 * the tree is plain scalar code.
 *
 * The scalar table is the semantic reference: each AVX2 kernel must
 * reproduce its outputs bit-for-bit on every input (tested in
 * tests/util_simd_test.cc). Callers normally go through
 * activeKernels(); tests index a specific level with kernels().
 */

#ifndef ACT_UTIL_SIMD_KERNELS_H
#define ACT_UTIL_SIMD_KERNELS_H

#include <cstddef>

#include "util/simd.h"

namespace act::util::simd {

/**
 * One job's window-cost evaluation over a cyclic intensity series:
 * for each shift k in [0, count), the duration-weighted intensity of
 * the window starting at sample (start0 + k). Mirrors the fleet
 * replayer's weightAt()/sumSamples() pair exactly:
 *
 *   s0     = (start0 + k) % n
 *   sum    = base + (s0 + rem <= n
 *                      ? prefix[s0 + rem] - prefix[s0]
 *                      : (prefix[n] - prefix[s0]) + prefix[s0+rem-n])
 *   out[k] = sum * step  (+ grams2x[s0 + rem] * tail_hours if tail)
 *
 * base = double(full / n) * prefix[n] and rem = full % n are per-job
 * constants (full = whole samples covered); grams2x is the series
 * doubled back-to-back so grams2x[s0 + rem] == grams[(s0 + rem) % n]
 * without a per-lane modulo. The AVX2 kernel splits [0, count) into
 * segments of uniform branch (wrap vs non-wrap) so loads stay
 * contiguous and every lane keeps the scalar association.
 */
struct WindowCostProblem
{
    const double *prefix = nullptr;  ///< n + 1 cyclic prefix sums
    const double *grams2x = nullptr; ///< 2n samples (series doubled)
    std::size_t n = 0;               ///< series length
    std::size_t start0 = 0;          ///< window start of shift 0
    std::size_t count = 0;           ///< shifts evaluated
    std::size_t rem = 0;             ///< full % n
    double base = 0.0;               ///< double(full / n) * prefix[n]
    double step = 0.0;               ///< sample step, hours
    double tail_hours = 0.0;         ///< fractional tail; <= 0 -> none
};

/**
 * One dispatch level's kernels. All kernels are pure (no global
 * state) and safe to call concurrently from many threads.
 */
struct KernelTable
{
    /** Window costs for shifts [0, count) into out; see
     *  WindowCostProblem. */
    void (*window_costs)(const WindowCostProblem &problem, double *out);

    /**
     * Index of the minimum of p[0..n); ties resolve to the earliest
     * index (strict-< scan semantics), matching the fleet placement
     * scan's earliest-start tie-break. n must be >= 1.
     */
    std::size_t (*argmin_first)(const double *p, std::size_t n);
};

/** The scalar reference kernels (always available). */
const KernelTable &scalarKernels();

/** The 4-lane AVX2 tier; null when not compiled in. Only safe to call
 *  through when the CPU reports AVX2 (see simdLevelAvailable()). */
const KernelTable *avx2Kernels();

/** The table for @p level; fatal when that level is not compiled into
 *  this binary. Does not re-check CPU support. */
const KernelTable &kernels(SimdLevel level);

/** kernels(simdLevel()): the table the process dispatches to. */
const KernelTable &activeKernels();

} // namespace act::util::simd

#endif // ACT_UTIL_SIMD_KERNELS_H

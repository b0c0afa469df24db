/**
 * @file
 * Internal kernel table behind util/simd.h: the fleet replayer's
 * window-cost and argmin kernels and the job stream's log-normal
 * duration transform, the three loops where the 4-lane AVX2 tier
 * measurably shortens an end-to-end run (DESIGN.md §11), as per-level
 * tables of function pointers: the scalar reference and the 4-lane
 * AVX2 tier. The problem descriptors are plain PODs so the per-level
 * translation units -- the AVX2 one is compiled with -mavx2 -- depend
 * on nothing above util. Every other batch loop in the tree is plain
 * scalar code.
 *
 * The scalar table is the semantic reference: each AVX2 kernel must
 * reproduce its outputs bit-for-bit on every input (tested in
 * tests/util_simd_test.cc). Callers normally go through
 * activeKernels(); tests index a specific level with kernels().
 *
 * detLog(), detCos() and detExp() are the libm-free functions the
 * log-normal kernel is built from, exported at scalar width for the
 * job stream's per-job oracle and for the accuracy tests.
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
 * A block of log-normal draws by Box-Muller from two unit columns,
 * clamped to max_value. Per element, with u1 raised to 1e-300 when it
 * is smaller (so the log stays finite):
 *
 *   normal = sqrt(-2 * detLog(u1)) * detCos(2 * pi * u2)
 *   out    = min(max_value, median * detExp(log_sigma * normal))
 *
 * where min(a, b) is std::min's (b < a ? b : a). The median of the
 * unclamped draws is `median` and one log-sd spans a factor of
 * exp(log_sigma). out may alias u1 but not u2: the kernel uses out
 * as scratch between its passes.
 */
struct LogNormalProblem
{
    const double *u1 = nullptr; ///< radius draws in [0, 1)
    const double *u2 = nullptr; ///< angle draws in [0, 1)
    std::size_t count = 0;      ///< draws to transform
    double median = 0.0;        ///< median of the draws, > 0
    double log_sigma = 0.0;     ///< detLog(sigma factor)
    double max_value = 0.0;     ///< upper clamp
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

    /** Log-normal draws [0, count) into out; see LogNormalProblem. */
    void (*log_normal)(const LogNormalProblem &problem, double *out);
};

/**
 * Natural log of a positive normal double (x >= 2^-1022, finite),
 * from fdlibm's e_log.c with only + - * / and bit operations. Within
 * 2 ulp of a correctly rounded log; tests/util_det_math_test.cc
 * checks it against libm on [1e-300, 1) and on sigma factors.
 */
double detLog(double x);

/**
 * Cosine on the Box-Muller angle range [0, 2 pi], from fdlibm's
 * k_cos.c/k_sin.c after a Cody-Waite reduction by pi/2 with a
 * 33 + 33 + 53-bit split of pi/2, so results stay within 2 ulp even
 * next to the zeros at odd multiples of pi/2. Larger arguments are
 * not supported.
 */
double detCos(double x);

/**
 * e^x, from fdlibm's e_exp.c; within 2 ulp of a correctly rounded
 * exp where the result is a normal double. Arguments are clamped to
 * [-1000, 1000] first, so the result saturates to 0 or +inf instead
 * of wrapping the exponent.
 */
double detExp(double x);

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

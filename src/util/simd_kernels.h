/**
 * @file
 * Internal kernel table behind util/simd.h: the fleet replayer's
 * placement scan and the job stream's log-normal duration transform,
 * the two loops where the 4-lane AVX2 tier measurably shortens an
 * end-to-end run (DESIGN.md §11), as per-level tables of function
 * pointers: the scalar tier and the 4-lane AVX2 tier. The problem
 * descriptors are plain PODs so the per-level translation units -- the
 * AVX2 one is compiled with -mavx2 -- depend on nothing above util.
 * Every other batch loop in the tree is plain scalar code.
 *
 * Both tiers instantiate one template per kernel
 * (simd_kernels_impl.h), at one lane and at four, and every lane
 * evaluates the scalar expression tree, so each tier's outputs are
 * bit-identical on every input (tested in tests/util_simd_test.cc
 * against naive in-test references). Callers normally go through
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
 * The widest lane count of any tier. A table the placement kernel
 * reads with lane loads carries kMaxLanes - 1 readable doubles past
 * its last entry, so a load that starts at the last region stays in
 * bounds; the extra lanes are never stored.
 */
constexpr std::size_t kMaxLanes = 4;

/**
 * One job's placement scan over every region of a fleet at once.
 * Both tables are region-interleaved: entry (i, r) sits at
 * [i * regions + r], so one lane load reads one row for consecutive
 * regions. For each region r and each shift k in [0, ends[classes-1])
 * the kernel evaluates the fleet replayer's weightAt()/sumSamples()
 * expression exactly:
 *
 *   s0     = (start0 + k) % n,  hi = s0 + rem
 *   base   = cycles * prefix(n, r)
 *   sum    = base + (hi <= n
 *                      ? prefix(hi, r) - prefix(s0, r)
 *                      : (prefix(n, r) - prefix(s0, r)) + prefix(hi-n, r))
 *   w(k,r) = sum * step  (+ sample(hi < n ? hi : hi - n, r) * tail_hours
 *                         if tail_hours > 0)
 *
 * and keeps a strict-< running argmin over k, so ties resolve to the
 * earliest shift. No cost may be NaN (the fleet setup refuses series
 * whose sums are not finite). Window class c covers shifts
 * [0, ends[c]); ends never decrease, so each class's window is a
 * prefix of the next and one pass answers all of them.
 * cycles = double(full / n) and rem = full % n are per-job constants
 * (full = whole samples covered).
 */
struct PlacementScanProblem
{
    const double *prefix = nullptr;  ///< (n + 1) x regions prefix sums
    const double *samples = nullptr; ///< n x regions samples
    std::size_t regions = 0;         ///< row stride of both tables
    std::size_t n = 0;               ///< series length
    std::size_t start0 = 0;          ///< window start of shift 0
    std::size_t rem = 0;             ///< full % n
    double cycles = 0.0;             ///< double(full / n)
    double step = 0.0;               ///< sample step, hours
    double tail_hours = 0.0;         ///< fractional tail; <= 0 -> none
    const std::size_t *ends = nullptr; ///< class ends; ends[0] >= 1
    std::size_t classes = 0;         ///< window classes, >= 1
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
    /**
     * The placement scan; see PlacementScanProblem. For class c and
     * region r, best_shift[c * regions + r] is the earliest shift in
     * [0, ends[c]) with the lowest window cost and
     * best_weight[c * regions + r] that cost.
     */
    void (*placement_scan)(const PlacementScanProblem &problem,
                           std::size_t *best_shift, double *best_weight);

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

/** The one-lane scalar tier (always available). */
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

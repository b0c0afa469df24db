/**
 * @file
 * Internal kernel table behind util/simd.h: the fleet replayer's
 * block kernel and the job stream's log-normal duration transform,
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
#include <cstdint>

#include "util/simd.h"

namespace act::util::simd {

/**
 * The widest lane count of any tier. A table the fleet block kernel
 * reads with lane loads carries kMaxLanes - 1 readable doubles past
 * its last entry, so a load that starts at the last region stays in
 * bounds; the extra lanes are never stored.
 */
constexpr std::size_t kMaxLanes = 4;

/**
 * The placement rules the fleet block kernel sums, one running sum
 * per (rule, home region). A rule fixes which shift window a job may
 * start in and whether it may leave its home region:
 *  - kSlackHome: the job's own slack window, home region only;
 *  - kWideHome: the block-wide slack window, home region only;
 *  - kSlackCross: the job's own slack window, any region.
 * The zero-slack rule (start at arrival, at home) is the baseline sum.
 */
enum PlacementRule : std::size_t
{
    kSlackHome = 0,
    kWideHome = 1,
    kSlackCross = 2,
    kPlacementRules = 3,
};

/**
 * One block of fleet jobs placed against every region at once. Both
 * tables are region-interleaved: entry (i, r) sits at
 * [i * regions + r], so one lane load reads one row for consecutive
 * regions.
 *
 * Per job the kernel derives the window shape
 *
 *   start0 = size_t(arrival_hours / step),  full = size_t(duration / step)
 *   cycles = double(full / n),  rem = full % n
 *   tail   = duration - double(full) * step
 *
 * and, for each region r and shift k, evaluates the fleet replayer's
 * weightAt()/sumSamples() expression exactly:
 *
 *   s0     = (start0 + k) % n,  hi = s0 + rem
 *   base   = cycles * prefix(n, r)
 *   sum    = base + (hi <= n
 *                      ? prefix(hi, r) - prefix(s0, r)
 *                      : (prefix(n, r) - prefix(s0, r)) + prefix(hi-n, r))
 *   w(k,r) = sum * step  (+ sample(hi < n ? hi : hi - n, r) * tail
 *                         if tail > 0)
 *
 * keeping a strict-< running argmin over k (ties resolve to the
 * earliest shift). No cost may be NaN (the fleet setup refuses series
 * whose sums are not finite). Three nested shift windows are read:
 * [0, 1), [0, size_t(slack / step) + 1) and
 * [0, size_t(wide / step) + 1), where slack is the job's slack_hours
 * and wide is wide_slack_hours for a deferrable job and 0 otherwise
 * (no job's slack_hours exceeds wide_slack_hours, so they nest).
 * Each window end is capped at n: shift k + n reads the same table
 * rows as shift k and so costs the same bits, which the strict-< scan
 * never prefers. Only the first `windows` windows are scanned; the
 * others collapse onto the widest scanned one.
 */
struct FleetBlockProblem
{
    const double *prefix = nullptr;  ///< (n + 1) x regions prefix sums
    const double *samples = nullptr; ///< n x regions samples
    std::size_t regions = 0;         ///< row stride of both tables
    std::size_t n = 0;               ///< series length, >= 1
    double step = 0.0;               ///< sample step, hours
    /** Job columns, count entries each; slack_hours is 0 for a job
     *  that is not deferrable. grid_kw is the job's grid draw. */
    const double *arrival_hours = nullptr;
    const double *duration_hours = nullptr;
    const double *slack_hours = nullptr;
    const std::uint8_t *deferrable = nullptr;
    const double *grid_kw = nullptr;
    std::size_t count = 0;
    double wide_slack_hours = 0.0; ///< kWideHome's slack, deferrable jobs
    std::size_t windows = 1;       ///< shift windows scanned, 1 to 3
};

/**
 * The running sums a fleet block kernel call adds to, kept by the
 * caller across blocks. Per job, with kw its grid_kw, home region h
 * receives:
 *  - baseline[h] += kw * w(0, h);
 *  - for a home-only rule over window c, the best (k, w) of region h
 *    in c: operational[rule * regions + h] += kw * w, and deferred
 *    += (k != 0);
 *  - for kSlackCross, the lexicographic minimum (w*, k*, r*) of
 *    (weight, shift, region) over every region's best in the slack
 *    window: if w* < w(0, h) the job moves to r*, adding kw * w* to
 *    operational, (k* != 0) to deferred and (r* != h) to migrated;
 *    otherwise it stays at home at shift 0 and adds kw * w(0, h).
 *    This is the first minimum of a shift-major, region-minor
 *    strict-< scan seeded with home at shift 0.
 * Every sum receives its adds in job order, so it has the bits of the
 * scalar running sum.
 *
 * Most jobs need no shift index: a strict-< scan's best k is nonzero
 * exactly when its w is below w(0, h), and a winner r* that no other
 * region ties has k* != 0 exactly when w* < w(0, r*). So a job whose
 * widest window ends before the series does (its last sample
 * start0 % n + end - 1 + rem is below n) runs a scan that keeps only
 * each region's running minimum, and its winner is the region holding
 * the least slack-window minimum. When two regions share that least
 * minimum, only the tied regions are scanned again, for the first
 * shift at which one costs it (the lowest such region wins). A job
 * whose window wraps the series end runs the indexed scan that also
 * keeps each first minimum's shift, and the lexicographic winner
 * above.
 */
struct FleetBlockSums
{
    double *baseline = nullptr;        ///< [regions]
    double *operational = nullptr;     ///< [kPlacementRules x regions]
    std::uint64_t *deferred = nullptr; ///< [kPlacementRules x regions]
    std::uint64_t *migrated = nullptr; ///< [kPlacementRules x regions]
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
    /** One block of fleet jobs into @p sums; see FleetBlockProblem
     *  and FleetBlockSums. */
    void (*fleet_block)(const FleetBlockProblem &problem,
                        const FleetBlockSums &sums);

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

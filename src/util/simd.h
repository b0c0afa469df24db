/**
 * @file
 * Runtime SIMD dispatch for the fleet replayer's block kernel and
 * the job stream's log-normal transform (util/simd_kernels.h), the
 * only dispatched kernels: two tiers, the 4-lane AVX2 kernels and the
 * one-lane scalar tier, selected once per process from CPU features
 * with an `ACT_SIMD=scalar|avx2|auto` environment override (parsed
 * through util/env). Hosts without AVX2 (including aarch64) run the
 * scalar tier.
 *
 * The dispatch level NEVER changes results. Every vector kernel
 * computes the scalar kernel's arithmetic expression for expression --
 * no FMA contraction (the whole project builds with -ffp-contract=off)
 * and no reassociation -- so IEEE-754 per-lane semantics make each
 * lane bit-identical to the scalar loop. The level is purely a
 * throughput knob; DESIGN.md §11 states the contract and its tests.
 */

#ifndef ACT_UTIL_SIMD_H
#define ACT_UTIL_SIMD_H

namespace act::util {

/**
 * Vector-width tiers for the dispatched kernels. The enumerator order
 * is the preference order -- higher is wider.
 */
enum class SimdLevel
{
    Scalar = 0,
    Avx2 = 1,
};

/** Display name: "scalar" or "avx2". */
const char *simdLevelName(SimdLevel level);

/** True when kernels for @p level are compiled into this binary and
 *  supported by the CPU it is running on. Scalar is always true. */
bool simdLevelAvailable(SimdLevel level);

/** Widest available level on this build + CPU (what `auto` picks). */
SimdLevel detectedSimdLevel();

/**
 * Map an ACT_SIMD-style name to a level: "scalar", "avx2", or
 * "auto" (the detected level). Unrecognized names warn once and fall
 * back to the detected level. The result is NOT clamped to what the
 * host supports; pair with setSimdLevel() or simdLevelAvailable().
 */
SimdLevel simdLevelFromName(const char *name);

/**
 * The active dispatch level. Resolved once on first use: the
 * `ACT_SIMD` environment variable when set (warn + detected level on
 * garbage), otherwise the detected level; a level the host cannot run
 * warns and clamps to the widest available one.
 */
SimdLevel simdLevel();

/**
 * Force the active level (tests and microbenchmarks; call sites
 * should restore `detectedSimdLevel()` afterwards). An unavailable
 * level warns and clamps. Returns the level actually installed.
 */
SimdLevel setSimdLevel(SimdLevel level);

} // namespace act::util

#endif // ACT_UTIL_SIMD_H

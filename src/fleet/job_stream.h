/**
 * @file
 * Deterministic seeded job streams for fleet replay. Job i of a
 * stream is a pure function of (params, i): its generator is seeded
 * with util::deriveSeed(params.seed, i), so any chunk of the stream
 * regenerates its jobs without coordination -- the foundation of the
 * fleet layer's bit-identity at any thread x shard x grain split.
 *
 * JSON form (all fields optional):
 *
 *   { "horizon_hours": 8760, "median_duration_hours": 2,
 *     "duration_sigma_factor": 2.5, "max_duration_hours": 48,
 *     "deferrable_fraction": 0.6, "max_slack_hours": 12 }
 */

#ifndef ACT_FLEET_JOB_STREAM_H
#define ACT_FLEET_JOB_STREAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "config/json.h"

namespace act::fleet {

/** Distribution parameters of one job stream. */
struct JobStreamParams
{
    /** Base seed; job i draws from util::deriveSeed(seed, i). */
    std::uint64_t seed = 42;
    /** Arrivals are uniform over [0, horizon) hours. */
    double horizon_hours = 24.0;
    /** Durations are log-normal (median, multiplicative spread > 1),
     *  drawn by Box-Muller with the libm-free util::simd::detLog /
     *  detCos / detExp, and clamped to max_duration_hours. */
    double median_duration_hours = 2.0;
    double duration_sigma_factor = 2.5;
    double max_duration_hours = 48.0;
    /** Probability a job tolerates deferral at all. */
    double deferrable_fraction = 0.6;
    /** Deferrable jobs draw their slack uniform over [0, max]. */
    double max_slack_hours = 12.0;
};

/** One job of the stream. */
struct Job
{
    double arrival_hours = 0.0;
    double duration_hours = 0.0;
    /** Server utilization while running, in [0, 1). */
    double utilization = 0.0;
    /** Hours past arrival the start may slip (0 if not deferrable). */
    double slack_hours = 0.0;
    bool deferrable = false;
};

/**
 * Generate job @p index of the stream (pure in (params, index)): five
 * unit draws in the order arrival, Box-Muller u1, u2, utilization,
 * deferrable, slack, with the duration from the scalar log-normal
 * kernel. The result's bits depend on no libm, host or SIMD level.
 */
Job jobAt(const JobStreamParams &params, std::uint64_t index);

/**
 * SoA columns of a block of consecutive jobs, plus the RNG scratch
 * the generator reuses across calls. Column i of a block starting at
 * stream index `first` holds exactly jobAt(params, first + i)'s
 * fields -- jobAt() stays the oracle.
 */
struct JobBlock
{
    std::size_t count = 0;
    std::vector<double> arrival_hours;
    std::vector<double> duration_hours;
    std::vector<double> utilization;
    /** 0 when the job is not deferrable, like Job::slack_hours. */
    std::vector<double> slack_hours;
    std::vector<std::uint8_t> deferrable;
    /** RNG scratch: each job's deriveSeed() seed, and its second
     *  Box-Muller unit draw. */
    std::vector<std::uint64_t> seeds;
    std::vector<double> normal_u2;
};

/**
 * Generate jobs [first, first + count) of the stream into @p block,
 * bit-identical to `count` jobAt() calls: two scalar loops derive
 * each job's seed and consume its stream in jobAt()'s draw order, then
 * the dispatched log-normal kernel (util::simd::activeKernels(), 4
 * lanes on AVX2) turns the parked Box-Muller pairs into durations,
 * with log(sigma) computed once per block instead of once per job.
 */
void jobBlockAt(const JobStreamParams &params, std::uint64_t first,
                std::size_t count, JobBlock &block);

/** Parse the JSON form; the seed comes from the caller (a SweepPlan),
 *  not the document. Throws config::JsonTypeError naming a missing,
 *  mistyped or out-of-range field. */
JobStreamParams jobStreamFromJson(const config::JsonValue &value);

} // namespace act::fleet

#endif // ACT_FLEET_JOB_STREAM_H

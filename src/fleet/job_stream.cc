#include "fleet/job_stream.h"

#include "util/logging.h"
#include "util/random.h"
#include "util/simd_kernels.h"

namespace act::fleet {

namespace {

/** The log-normal kernel's problem for @p params, minus its columns;
 *  fatal unless the duration distribution is well formed (the JSON
 *  reader already refuses such a plan). */
util::simd::LogNormalProblem
durationProblem(const JobStreamParams &params)
{
    if (!(params.median_duration_hours > 0.0) ||
        !(params.duration_sigma_factor > 1.0))
        util::fatal("job stream needs median_duration_hours > 0 and "
                    "duration_sigma_factor > 1 (got ",
                    params.median_duration_hours, " and ",
                    params.duration_sigma_factor, ")");
    util::simd::LogNormalProblem problem;
    problem.median = params.median_duration_hours;
    problem.log_sigma = util::simd::detLog(params.duration_sigma_factor);
    problem.max_value = params.max_duration_hours;
    return problem;
}

} // namespace

Job
jobAt(const JobStreamParams &params, std::uint64_t index)
{
    // Fixed draw order: any reordering is a stream-format change that
    // breaks every pinned fleet result.
    util::simd::LogNormalProblem duration = durationProblem(params);
    util::Xorshift64Star rng(util::deriveSeed(params.seed, index));
    Job job;
    job.arrival_hours = rng.nextUniform(0.0, params.horizon_hours);
    const double u1 = rng.nextUnit();
    const double u2 = rng.nextUnit();
    job.utilization = rng.nextUnit();
    job.deferrable = rng.nextUnit() < params.deferrable_fraction;
    const double slack = rng.nextUniform(0.0, params.max_slack_hours);
    job.slack_hours = job.deferrable ? slack : 0.0;
    duration.u1 = &u1;
    duration.u2 = &u2;
    duration.count = 1;
    util::simd::scalarKernels().log_normal(duration, &job.duration_hours);
    return job;
}

void
jobBlockAt(const JobStreamParams &params, std::uint64_t first,
           std::size_t count, JobBlock &block)
{
    block.count = count;
    block.arrival_hours.resize(count);
    block.duration_hours.resize(count);
    block.utilization.resize(count);
    block.slack_hours.resize(count);
    block.deferrable.resize(count);
    if (count == 0)
        return;

    // Three passes, each short enough for consecutive jobs to overlap:
    // every job's seed; the draws, consuming each job's stream in
    // jobAt()'s order and parking the Box-Muller pair in
    // duration_hours / normal_u2; then the dispatched log-normal
    // kernel, which turns the pair into the duration in place,
    // bit-identical to jobAt()'s scalar kernel.
    util::simd::LogNormalProblem duration = durationProblem(params);
    block.seeds.resize(count);
    block.normal_u2.resize(count);
    for (std::size_t i = 0; i < count; ++i)
        block.seeds[i] = util::deriveSeed(params.seed, first + i);
    for (std::size_t i = 0; i < count; ++i) {
        util::Xorshift64Star rng(block.seeds[i]);
        block.arrival_hours[i] =
            rng.nextUniform(0.0, params.horizon_hours);
        block.duration_hours[i] = rng.nextUnit();
        block.normal_u2[i] = rng.nextUnit();
        block.utilization[i] = rng.nextUnit();
        const bool deferrable =
            rng.nextUnit() < params.deferrable_fraction;
        // The slack draw is always consumed, then zeroed for pinned
        // jobs, like jobAt().
        const double slack = rng.nextUniform(0.0, params.max_slack_hours);
        block.deferrable[i] = deferrable ? 1 : 0;
        block.slack_hours[i] = deferrable ? slack : 0.0;
    }
    duration.u1 = block.duration_hours.data();
    duration.u2 = block.normal_u2.data();
    duration.count = count;
    util::simd::activeKernels().log_normal(duration,
                                           block.duration_hours.data());
}

JobStreamParams
jobStreamFromJson(const config::JsonValue &value)
{
    if (!value.isObject())
        throw config::JsonTypeError("a job stream must be a JSON object");
    JobStreamParams params;
    params.horizon_hours = config::number(value, "horizon_hours",
                                          params.horizon_hours,
                                          config::above(0.0));
    params.median_duration_hours =
        config::number(value, "median_duration_hours",
                       params.median_duration_hours, config::above(0.0));
    params.duration_sigma_factor =
        config::number(value, "duration_sigma_factor",
                       params.duration_sigma_factor, config::above(1.0));
    params.max_duration_hours = config::number(
        value, "max_duration_hours", params.max_duration_hours,
        config::atLeast(params.median_duration_hours));
    params.deferrable_fraction =
        config::number(value, "deferrable_fraction",
                       params.deferrable_fraction, config::closed(0.0, 1.0));
    params.max_slack_hours = config::number(
        value, "max_slack_hours", params.max_slack_hours,
        config::atLeast(0.0));
    return params;
}

} // namespace act::fleet

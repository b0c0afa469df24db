#include "fleet/job_stream.h"

#include <type_traits>

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

    const std::uint64_t *seeds = block.seeds.data();
    double *arrival = block.arrival_hours.data();
    double *u1 = block.duration_hours.data();
    double *u2 = block.normal_u2.data();
    double *utilization = block.utilization.data();
    double *slack_hours = block.slack_hours.data();
    std::uint8_t *deferrable = block.deferrable.data();
    const double horizon = params.horizon_hours;
    const double fraction = params.deferrable_fraction;
    const double max_slack = params.max_slack_hours;
    // Jobs [i, i + K) at once: the K streams advance in lock-step, one
    // draw of each per step, so their multiply chains overlap; each
    // stream still yields its draws in jobAt()'s order.
    const auto drawJobs = [&](auto lanes, std::size_t i) {
        constexpr std::size_t K = decltype(lanes)::value;
        util::Xorshift64Star rng[K];
        for (std::size_t j = 0; j < K; ++j)
            rng[j] = util::Xorshift64Star(seeds[i + j]);
        for (std::size_t j = 0; j < K; ++j)
            arrival[i + j] = rng[j].nextUniform(0.0, horizon);
        for (std::size_t j = 0; j < K; ++j)
            u1[i + j] = rng[j].nextUnit();
        for (std::size_t j = 0; j < K; ++j)
            u2[i + j] = rng[j].nextUnit();
        for (std::size_t j = 0; j < K; ++j)
            utilization[i + j] = rng[j].nextUnit();
        bool defers[K];
        for (std::size_t j = 0; j < K; ++j)
            defers[j] = rng[j].nextUnit() < fraction;
        // The slack draw is always consumed, then zeroed for pinned
        // jobs, like jobAt().
        for (std::size_t j = 0; j < K; ++j) {
            const double slack = rng[j].nextUniform(0.0, max_slack);
            deferrable[i + j] = defers[j] ? 1 : 0;
            slack_hours[i + j] = defers[j] ? slack : 0.0;
        }
    };
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4)
        drawJobs(std::integral_constant<std::size_t, 4>{}, i);
    for (; i < count; ++i)
        drawJobs(std::integral_constant<std::size_t, 1>{}, i);
    duration.u1 = u1;
    duration.u2 = u2;
    duration.count = count;
    util::simd::activeKernels().log_normal(duration, u1);
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

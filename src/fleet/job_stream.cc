#include "fleet/job_stream.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace act::fleet {

Job
jobAt(const JobStreamParams &params, std::uint64_t index)
{
    // Fixed draw order: any reordering is a stream-format change that
    // breaks every pinned fleet result.
    util::Xorshift64Star rng(util::deriveSeed(params.seed, index));
    Job job;
    job.arrival_hours = rng.nextUniform(0.0, params.horizon_hours);
    job.duration_hours =
        std::min(params.max_duration_hours,
                 rng.nextLogNormal(params.median_duration_hours,
                                   params.duration_sigma_factor));
    job.utilization = rng.nextUnit();
    job.deferrable = rng.nextUnit() < params.deferrable_fraction;
    const double slack = rng.nextUniform(0.0, params.max_slack_hours);
    job.slack_hours = job.deferrable ? slack : 0.0;
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

    // nextLogNormal()'s guard and log(sigma) hoisted out of the loops
    // (their operands are loop constants). The draw loop consumes each
    // job's stream in jobAt()'s order and parks the Box-Muller pair in
    // duration_hours / normal_u2; the libm loop then applies jobAt()'s
    // exact expression tree. Keeping the libm calls out of the draw
    // loop lets consecutive jobs' xorshift chains overlap. The spare
    // normal is never consumed because each job gets a fresh generator.
    if (params.median_duration_hours <= 0.0 ||
        params.duration_sigma_factor <= 1.0)
        util::fatal(
            "nextLogNormal() needs median > 0 and sigma factor > 1");
    const double log_sigma = std::log(params.duration_sigma_factor);
    block.normal_u2.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        util::Xorshift64Star rng(util::deriveSeed(params.seed, first + i));
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
    for (std::size_t i = 0; i < count; ++i) {
        double u1 = block.duration_hours[i];
        if (u1 < 1e-300)
            u1 = 1e-300;
        const double radius = std::sqrt(-2.0 * std::log(u1));
        const double angle =
            2.0 * 3.14159265358979323846 * block.normal_u2[i];
        const double normal = radius * std::cos(angle);
        block.duration_hours[i] =
            std::min(params.max_duration_hours,
                     params.median_duration_hours *
                         std::exp(log_sigma * normal));
    }
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
                       params.duration_sigma_factor, config::atLeast(1.0));
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

config::JsonValue
toJson(const JobStreamParams &params)
{
    config::JsonObject object;
    object["horizon_hours"] = config::JsonValue(params.horizon_hours);
    object["median_duration_hours"] =
        config::JsonValue(params.median_duration_hours);
    object["duration_sigma_factor"] =
        config::JsonValue(params.duration_sigma_factor);
    object["max_duration_hours"] =
        config::JsonValue(params.max_duration_hours);
    object["deferrable_fraction"] =
        config::JsonValue(params.deferrable_fraction);
    object["max_slack_hours"] =
        config::JsonValue(params.max_slack_hours);
    return config::JsonValue(std::move(object));
}

} // namespace act::fleet

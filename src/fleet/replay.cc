#include "fleet/replay.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "core/footprint.h"
#include "data/intensity_series.h"
#include "util/logging.h"
#include "util/simd_kernels.h"
#include "util/strings.h"

namespace act::fleet {

namespace {

/** Sum of @p count consecutive samples of @p region from @p start,
 *  cyclic, O(1) via the prefix sums. */
double
sumSamples(const RegionTable &table, std::size_t region,
           std::size_t start, std::size_t count)
{
    const std::size_t n = table.n;
    double sum =
        static_cast<double>(count / n) * table.prefixAt(region, n);
    const std::size_t rem = count % n;
    const std::size_t s0 = start % n;
    if (s0 + rem <= n)
        sum += table.prefixAt(region, s0 + rem) -
               table.prefixAt(region, s0);
    else
        sum += (table.prefixAt(region, n) - table.prefixAt(region, s0)) +
               table.prefixAt(region, s0 + rem - n);
    return sum;
}

/**
 * Duration-weighted intensity (g/kWh x h) of a job occupying
 * [start, start + duration) sample-aligned in @p region: full samples
 * at step hours each plus the fractional tail. Multiplying by the
 * job's grid power in kW yields its operational grams.
 */
double
weightAt(const RegionTable &table, std::size_t region, std::size_t start,
         double duration_hours)
{
    const double step = table.step_hours;
    const auto full = static_cast<std::size_t>(duration_hours / step);
    const double tail_hours =
        duration_hours - static_cast<double>(full) * step;
    double weight = sumSamples(table, region, start, full) * step;
    if (tail_hours > 0.0)
        weight += table.sampleAt(region, start + full) * tail_hours;
    return weight;
}

/** Hours of start slip this scenario's policy grants @p job.
 *  Placement depends on the policy only through this value and the
 *  cross-region flag. */
double
allowedSlack(const FleetSetup &setup, const FleetScenario &scenario,
             const Job &job)
{
    if (!job.deferrable)
        return 0.0;
    switch (scenario.policy.kind) {
    case core::DeferralPolicy::Uniform:
        return 0.0;
    case core::DeferralPolicy::GreedyGreenest:
        // Fleet-wide batch window: any deferrable job may slip up to
        // the stream's maximum slack.
        return setup.jobs.max_slack_hours;
    case core::DeferralPolicy::DeadlineBounded:
    case core::DeferralPolicy::GreenestRegion:
        return job.slack_hours;
    }
    util::fatal("unknown deferral policy kind");
}

/** Jobs per SoA generation block: big enough to amortize the kernel
 *  dispatch, small enough to stay cache-resident per thread. */
constexpr std::size_t kJobBlock = 512;

/** How a scenario's running sums are kept: a policy kind's placement
 *  rule (util/simd_kernels.h), or the home baseline for Uniform. */
constexpr std::size_t kBaselineRule = util::simd::kPlacementRules;

std::size_t
placementRuleOf(core::DeferralPolicy kind)
{
    switch (kind) {
    case core::DeferralPolicy::Uniform:
        return kBaselineRule;
    case core::DeferralPolicy::GreedyGreenest:
        return util::simd::kWideHome;
    case core::DeferralPolicy::DeadlineBounded:
        return util::simd::kSlackHome;
    case core::DeferralPolicy::GreenestRegion:
        return util::simd::kSlackCross;
    }
    util::fatal("unknown deferral policy kind");
}

} // namespace

FleetSetup
fleetSetupFromJson(const config::JsonValue &config, std::uint64_t seed)
{
    if (!config.isObject())
        throw config::JsonTypeError("a fleet plan needs a 'config' object");
    FleetSetup setup;
    setup.platform = server::dellR740Platform(core::FabParams{});
    setup.pue = config::number(config, "pue", 1.2, config::atLeast(1.0));

    if (config.contains("jobs")) {
        setup.jobs = config::inContext(
            [&] { return jobStreamFromJson(config.at("jobs")); }, "jobs");
    }
    setup.jobs.seed = seed;

    const config::JsonArray &regions = config.at("regions").asArray();
    if (regions.empty()) {
        config::badField("regions", "a non-empty array",
                         config.at("regions"));
    }
    RegionTable &table = setup.intensity;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        config::inContext(
            [&] {
                const data::IntensitySeries series =
                    data::intensitySeriesFromJson(regions[r]);
                if (r == 0) {
                    table.regions = regions.size();
                    table.n = series.size();
                    table.step_hours = series.stepHours();
                    const std::size_t pad = util::simd::kMaxLanes - 1;
                    table.prefix.assign((table.n + 1) * table.regions + pad,
                                        0.0);
                    table.samples.assign(table.n * table.regions + pad,
                                         0.0);
                } else if (series.size() != table.n ||
                           series.stepHours() != table.step_hours) {
                    throw config::JsonTypeError(util::detail::concatenate(
                        "series of ", series.size(), " x ",
                        series.stepHours(), " h must match regions[0]'s ",
                        table.n, " x ", table.step_hours, " h"));
                }
                double sum = 0.0;
                for (std::size_t i = 0; i < table.n; ++i) {
                    const double g = series.samples()[i];
                    table.samples[i * table.regions + r] = g;
                    sum += g;
                    table.prefix[(i + 1) * table.regions + r] = sum;
                }
                if (!std::isfinite(sum)) {
                    throw config::JsonTypeError(util::detail::concatenate(
                        "the series must sum to a finite number of "
                        "g CO2/kWh (got ",
                        sum, ")"));
                }
                setup.region_names.push_back(
                    regions[r].stringOr("name", series.name()));
            },
            "regions[", r, "]");
    }

    // Each jobs field in hours becomes a sample count through a
    // double -> size_t cast (the arrival sample, a duration's whole
    // samples, a slack's shift count), which past 2^53 samples is
    // undefined or rounded; refuse the stream here, where the step is
    // known.
    const std::pair<const char *, double> hours_fields[] = {
        {"horizon_hours", setup.jobs.horizon_hours},
        {"median_duration_hours", setup.jobs.median_duration_hours},
        {"max_duration_hours", setup.jobs.max_duration_hours},
        {"max_slack_hours", setup.jobs.max_slack_hours},
    };
    for (const auto &[field, hours] : hours_fields) {
        if (hours / table.step_hours > 0x1p53) {
            config::inContext(
                [&] {
                    config::badField(
                        field,
                        util::detail::concatenate(
                            "at most 2^53 samples of ",
                            config::shortest(table.step_hours), " h"),
                        config::JsonValue(hours));
                },
                "jobs");
        }
    }

    std::vector<core::PolicySpec> policies;
    std::vector<std::string> policy_names;
    if (config.contains("policies")) {
        for (const config::JsonValue &entry :
             config.at("policies").asArray()) {
            policies.push_back(core::policyByName(entry.asString()));
            policy_names.push_back(entry.asString());
        }
        if (policies.empty()) {
            config::badField("policies", "a non-empty array",
                             config.at("policies"));
        }
    } else {
        for (const char *name : {"uniform", "greedy"}) {
            policies.push_back(core::policyByName(name));
            policy_names.emplace_back(name);
        }
    }
    const std::uint64_t deadline_samples = config::count(
        config, "deadline_samples", 6, {1, config::kMaxCount});
    for (core::PolicySpec &policy : policies) {
        if (policy.kind == core::DeferralPolicy::DeadlineBounded)
            policy.deadline_samples = deadline_samples;
    }

    const std::vector<double> lifetimes =
        config.contains("lifetime_years")
            ? config::numbers(config, "lifetime_years", config::above(0.0))
            : std::vector<double>{4.0};

    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t r = 0; r < setup.region_names.size(); ++r) {
            for (const double years : lifetimes) {
                FleetScenario scenario;
                scenario.policy = policies[p];
                scenario.home_region = r;
                scenario.lifetime = util::years(years);
                scenario.label = policy_names[p] + "@" +
                                 setup.region_names[r] + "/" +
                                 util::formatSig(years, 3) + "y";
                setup.scenarios.push_back(std::move(scenario));
            }
        }
    }
    return setup;
}

void
FleetAccumulator::add(const FleetAccumulator &other)
{
    jobs += other.jobs;
    deferred += other.deferred;
    migrated += other.migrated;
    operational_g += other.operational_g;
    embodied_g += other.embodied_g;
    energy_kwh += other.energy_kwh;
    busy_hours += other.busy_hours;
    baseline_g += other.baseline_g;
}

std::vector<FleetAccumulator>
replayJobs(const FleetSetup &setup, util::IndexRange range)
{
    std::vector<FleetAccumulator> accumulators(setup.scenarios.size());
    if (setup.scenarios.empty() || range.begin >= range.end)
        return accumulators;

    const RegionTable &table = setup.intensity;
    const std::size_t n_regions = table.regions;
    const double embodied_g = util::asGrams(setup.platform.embodied);

    // Every scenario's accumulator gets its adds in job order, and
    // each field's add depends on the scenario only through one key:
    // energy and busy hours on nothing, embodied on the lifetime,
    // baseline on the home region, and operational / deferred /
    // migrated on the (placement rule, home region) pair. One running
    // sum per distinct key therefore carries the exact bits of every
    // accumulator that shares it; the accumulators are filled from
    // them at the end.
    std::vector<core::Eq1Amortizer> lifetimes;
    std::vector<std::size_t> lifetime_of(setup.scenarios.size());
    // The shift windows the kernel scans: the arrival sample always,
    // then the per-job slack and the fleet-wide (greedy) slack when a
    // scenario reads them.
    std::size_t windows = 1;
    for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
        const FleetScenario &scenario = setup.scenarios[s];
        std::size_t l = 0;
        while (l < lifetimes.size() &&
               lifetimes[l].lifetime() != scenario.lifetime)
            ++l;
        if (l == lifetimes.size())
            lifetimes.emplace_back(scenario.lifetime);
        lifetime_of[s] = l;
        const std::size_t rule = placementRuleOf(scenario.policy.kind);
        if (rule == util::simd::kWideHome)
            windows = 3;
        else if (rule != kBaselineRule)
            windows = std::max<std::size_t>(windows, 2);
    }
    double energy_kwh = 0.0;
    double busy_hours = 0.0;
    std::vector<double> embodied_sums(lifetimes.size(), 0.0);
    const std::size_t rule_sums = util::simd::kPlacementRules * n_regions;
    std::vector<double> baseline_sums(n_regions, 0.0);
    std::vector<double> operational_sums(rule_sums, 0.0);
    std::vector<std::uint64_t> deferred_sums(rule_sums, 0);
    std::vector<std::uint64_t> migrated_sums(rule_sums, 0);
    const util::simd::FleetBlockSums sums = {
        baseline_sums.data(), operational_sums.data(),
        deferred_sums.data(), migrated_sums.data()};

    const util::simd::KernelTable &kt = util::simd::activeKernels();
    const double idle_w = util::asWatts(setup.platform.idle_power);
    const double span_w = util::asWatts(setup.platform.peak_power -
                                        setup.platform.idle_power);

    // Reused per-thread scratch: the SoA job block and its grid draws.
    thread_local JobBlock block;
    thread_local std::vector<double> grid_kw;

    util::simd::FleetBlockProblem problem;
    problem.prefix = table.prefix.data();
    problem.samples = table.samples.data();
    problem.regions = n_regions;
    problem.n = table.n;
    problem.step = table.step_hours;
    problem.wide_slack_hours = setup.jobs.max_slack_hours;
    problem.windows = windows;

    for (std::size_t first = range.begin; first < range.end;
         first += kJobBlock) {
        const std::size_t count =
            std::min<std::size_t>(kJobBlock, range.end - first);
        jobBlockAt(setup.jobs, first, count, block);
        grid_kw.resize(count);

        for (std::size_t i = 0; i < count; ++i) {
            // powerAtUtilization()'s range check, then Eq. 1's
            // lifetime checks in list order, job by job: a fatal names
            // the oracle's first offending job and scenario. The grid
            // draw (IT power x PUE) is in kW, with the watts tree
            // idle + (peak - idle) * u.
            const double u = block.utilization[i];
            if (!(u >= 0.0 && u <= 1.0))
                (void)server::powerAtUtilization(setup.platform, u);
            grid_kw[i] = (idle_w + span_w * u) / 1000.0 * setup.pue;
            const double duration = block.duration_hours[i];
            for (std::size_t l = 0; l < lifetimes.size(); ++l) {
                embodied_sums[l] +=
                    util::asGrams(lifetimes[l].allocateEmbodied(
                        util::grams(embodied_g),
                        util::hours(duration)));
            }
            energy_kwh += grid_kw[i] * duration;
            busy_hours += duration;
        }

        problem.arrival_hours = block.arrival_hours.data();
        problem.duration_hours = block.duration_hours.data();
        problem.slack_hours = block.slack_hours.data();
        problem.deferrable = block.deferrable.data();
        problem.grid_kw = grid_kw.data();
        problem.count = count;
        kt.fleet_block(problem, sums);
        core::countEq1Evals(count * setup.scenarios.size());
    }

    for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
        const FleetScenario &scenario = setup.scenarios[s];
        const std::size_t home = scenario.home_region;
        const std::size_t rule = placementRuleOf(scenario.policy.kind);
        FleetAccumulator &acc = accumulators[s];
        acc.jobs = range.size();
        if (rule == kBaselineRule) {
            // A uniform scenario's operational sum has its home
            // baseline's addends in the same order.
            acc.operational_g = baseline_sums[home];
        } else {
            const std::size_t key = rule * n_regions + home;
            acc.deferred = deferred_sums[key];
            acc.migrated = migrated_sums[key];
            acc.operational_g = operational_sums[key];
        }
        acc.embodied_g = embodied_sums[lifetime_of[s]];
        acc.energy_kwh = energy_kwh;
        acc.busy_hours = busy_hours;
        acc.baseline_g = baseline_sums[home];
    }
    return accumulators;
}

std::vector<FleetAccumulator>
replayJobsOracle(const FleetSetup &setup, util::IndexRange range)
{
    std::vector<FleetAccumulator> accumulators(setup.scenarios.size());
    const RegionTable &table = setup.intensity;
    const double step = table.step_hours;
    const double embodied_g = util::asGrams(setup.platform.embodied);

    for (std::size_t index = range.begin; index < range.end; ++index) {
        const Job job = jobAt(setup.jobs, index);
        // Grid draw of this job (IT power x PUE), in kW.
        const double grid_kw =
            util::asWatts(server::powerAtUtilization(
                setup.platform, job.utilization)) /
            1000.0 * setup.pue;
        const std::size_t arrival =
            static_cast<std::size_t>(job.arrival_hours / step);

        for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
            const FleetScenario &scenario = setup.scenarios[s];
            const bool cross_region =
                scenario.policy.kind ==
                core::DeferralPolicy::GreenestRegion;
            const auto max_shift = static_cast<std::size_t>(
                allowedSlack(setup, scenario, job) / step);

            // Greenest window within slack; ties resolve to the
            // earliest start, then the lowest region index, so the
            // choice is implementation-independent.
            double best_weight = weightAt(table, scenario.home_region,
                                          arrival, job.duration_hours);
            std::size_t best_start = arrival;
            std::size_t best_region = scenario.home_region;
            const double baseline_weight = best_weight;
            for (std::size_t shift = 0; shift <= max_shift; ++shift) {
                const std::size_t start = arrival + shift;
                if (cross_region) {
                    for (std::size_t r = 0; r < table.regions; ++r) {
                        const double weight = weightAt(
                            table, r, start, job.duration_hours);
                        if (weight < best_weight) {
                            best_weight = weight;
                            best_start = start;
                            best_region = r;
                        }
                    }
                } else if (shift > 0) {
                    const double weight = weightAt(
                        table, scenario.home_region, start,
                        job.duration_hours);
                    if (weight < best_weight) {
                        best_weight = weight;
                        best_start = start;
                    }
                }
            }

            const double operational_g_job = grid_kw * best_weight;
            const core::CarbonFootprint footprint =
                core::combineFootprint(
                    util::grams(operational_g_job),
                    util::grams(embodied_g),
                    util::hours(job.duration_hours),
                    scenario.lifetime);

            FleetAccumulator &acc = accumulators[s];
            acc.jobs += 1;
            acc.deferred += best_start != arrival ? 1 : 0;
            acc.migrated +=
                best_region != scenario.home_region ? 1 : 0;
            acc.operational_g += util::asGrams(footprint.operational);
            acc.embodied_g +=
                util::asGrams(footprint.embodied_allocated);
            acc.energy_kwh += grid_kw * job.duration_hours;
            acc.busy_hours += job.duration_hours;
            acc.baseline_g += grid_kw * baseline_weight;
        }
    }
    return accumulators;
}

config::JsonValue
toJson(const FleetAccumulator &accumulator)
{
    config::JsonObject object;
    object["jobs"] =
        config::JsonValue(static_cast<double>(accumulator.jobs));
    object["deferred"] =
        config::JsonValue(static_cast<double>(accumulator.deferred));
    object["migrated"] =
        config::JsonValue(static_cast<double>(accumulator.migrated));
    object["operational_g"] =
        config::JsonValue(accumulator.operational_g);
    object["embodied_g"] = config::JsonValue(accumulator.embodied_g);
    object["energy_kwh"] = config::JsonValue(accumulator.energy_kwh);
    object["busy_hours"] = config::JsonValue(accumulator.busy_hours);
    object["baseline_g"] = config::JsonValue(accumulator.baseline_g);
    return config::JsonValue(std::move(object));
}

FleetAccumulator
fleetAccumulatorFromJson(const config::JsonValue &value)
{
    FleetAccumulator accumulator;
    accumulator.jobs = config::count(value, "jobs");
    accumulator.deferred = config::count(value, "deferred");
    accumulator.migrated = config::count(value, "migrated");
    accumulator.operational_g = config::number(value, "operational_g");
    accumulator.embodied_g = config::number(value, "embodied_g");
    accumulator.energy_kwh = config::number(value, "energy_kwh");
    accumulator.busy_hours = config::number(value, "busy_hours");
    accumulator.baseline_g = config::number(value, "baseline_g");
    return accumulator;
}

} // namespace act::fleet

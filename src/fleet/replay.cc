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

/** Hours of start slip a policy of @p kind grants a job with the
 *  given deferral fields. Placement depends on the policy only
 *  through this value and the cross-region flag. */
double
allowedSlackHours(const FleetSetup &setup, core::DeferralPolicy kind,
                  bool deferrable, double slack_hours)
{
    if (!deferrable)
        return 0.0;
    switch (kind) {
    case core::DeferralPolicy::Uniform:
        return 0.0;
    case core::DeferralPolicy::GreedyGreenest:
        // Fleet-wide batch window: any deferrable job may slip up to
        // the stream's maximum slack.
        return setup.jobs.max_slack_hours;
    case core::DeferralPolicy::DeadlineBounded:
    case core::DeferralPolicy::GreenestRegion:
        return slack_hours;
    }
    util::fatal("unknown deferral policy kind");
}

/** Hours of start slip this scenario's policy grants @p job. */
double
allowedSlack(const FleetSetup &setup, const FleetScenario &scenario,
             const Job &job)
{
    return allowedSlackHours(setup, scenario.policy.kind,
                             job.deferrable, job.slack_hours);
}

/** Jobs per SoA generation block: big enough to amortize the kernel
 *  dispatch, small enough to stay cache-resident per thread. */
constexpr std::size_t kJobBlock = 512;

/** Shift-window classes a job exposes, ordered by width: the fixed
 *  arrival sample, the per-job slack draw, and the fleet-wide greedy
 *  window. Counts never shrink along this order (see
 *  allowedSlackHours()), so each class's window is a prefix of the
 *  next one's. */
enum WindowClass : std::size_t
{
    kWindowUnit = 0,
    kWindowSlack = 1,
    kWindowGreedy = 2,
    kWindowClasses = 3,
};

/**
 * Scenarios sharing one placement per job. Placement depends on the
 * scenario only through the policy kind (slack + cross-region flag)
 * and the home region; lifetime enters the Eq. 1 amortization
 * afterwards. A policy x region x lifetime grid therefore needs only
 * |kinds| x |regions| placements per job, fanned out to its cells.
 */
struct PlacementGroup
{
    core::DeferralPolicy kind = core::DeferralPolicy::Uniform;
    std::size_t home_region = 0;
    /** Index into a job's per-class shift counts. */
    std::size_t window_class = kWindowUnit;
    /** GreenestRegion scans every region, not just home. */
    bool cross_region = false;
    /** Scenario indices this placement fans out to, ascending. */
    std::vector<std::size_t> scenarios;
};

/** The window class a policy kind's slack grant falls in. */
std::size_t
windowClassOf(core::DeferralPolicy kind)
{
    switch (kind) {
    case core::DeferralPolicy::Uniform:
        return kWindowUnit;
    case core::DeferralPolicy::GreedyGreenest:
        return kWindowGreedy;
    case core::DeferralPolicy::DeadlineBounded:
    case core::DeferralPolicy::GreenestRegion:
        return kWindowSlack;
    }
    util::fatal("unknown deferral policy kind");
}

std::vector<PlacementGroup>
buildPlacementGroups(const FleetSetup &setup)
{
    std::vector<PlacementGroup> groups;
    for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
        const FleetScenario &scenario = setup.scenarios[s];
        PlacementGroup *match = nullptr;
        for (PlacementGroup &group : groups) {
            if (group.kind == scenario.policy.kind &&
                group.home_region == scenario.home_region) {
                match = &group;
                break;
            }
        }
        if (match == nullptr) {
            groups.push_back(
                {scenario.policy.kind, scenario.home_region,
                 windowClassOf(scenario.policy.kind),
                 scenario.policy.kind ==
                     core::DeferralPolicy::GreenestRegion,
                 {}});
            match = &groups.back();
        }
        match->scenarios.push_back(s);
    }
    return groups;
}

/** Running per-job sums of one placement group: every scenario in the
 *  group receives exactly these adds, in this order. */
struct GroupSums
{
    std::uint64_t deferred = 0;
    std::uint64_t migrated = 0;
    double operational_g = 0.0;
};

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
    const std::size_t n = table.n;
    const double step = table.step_hours;
    const double embodied_g = util::asGrams(setup.platform.embodied);
    const std::vector<PlacementGroup> groups =
        buildPlacementGroups(setup);

    // Every scenario's accumulator gets its adds in job order, and
    // each field's add depends on the scenario only through one key:
    // energy and busy hours on nothing, embodied on the lifetime,
    // baseline on the home region, and operational / deferred /
    // migrated on the placement group. One running sum per distinct
    // key therefore carries the exact bits of every accumulator that
    // shares it; the accumulators are filled from them at the end.
    std::vector<core::Eq1Amortizer> lifetimes;
    std::vector<std::size_t> lifetime_of(setup.scenarios.size());
    for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
        const FleetScenario &scenario = setup.scenarios[s];
        std::size_t l = 0;
        while (l < lifetimes.size() &&
               lifetimes[l].lifetime() != scenario.lifetime)
            ++l;
        if (l == lifetimes.size())
            lifetimes.emplace_back(scenario.lifetime);
        lifetime_of[s] = l;
    }
    double energy_kwh = 0.0;
    double busy_hours = 0.0;
    std::vector<double> embodied_sums(lifetimes.size(), 0.0);
    std::vector<double> baseline_sums(n_regions, 0.0);
    std::vector<GroupSums> group_sums(groups.size());

    const util::simd::KernelTable &kt = util::simd::activeKernels();
    const double idle_w = util::asWatts(setup.platform.idle_power);
    const double span_w = util::asWatts(setup.platform.peak_power -
                                        setup.platform.idle_power);

    // The widest window class any group reads, and the classes a
    // cross-region group reads. The kernel answers every class up to
    // the widest; the unit class (shift 0) always, for the baseline.
    std::size_t widest = kWindowUnit;
    bool cross_class[kWindowClasses] = {};
    for (const PlacementGroup &group : groups) {
        widest = std::max(widest, group.window_class);
        cross_class[group.window_class] |= group.cross_region;
    }
    // Per job, best_shift / best_weight[c * n_regions + r] is region
    // r's best start within window class c and its cost; class
    // kWindowUnit's cost is each region's cost at the arrival sample.
    std::vector<std::size_t> best_shift(kWindowClasses * n_regions);
    std::vector<double> best_weight(kWindowClasses * n_regions);
    std::size_t ends[kWindowClasses] = {1, 1, 1};
    util::simd::PlacementScanProblem problem;
    problem.prefix = table.prefix.data();
    problem.samples = table.samples.data();
    problem.regions = n_regions;
    problem.n = n;
    problem.step = step;
    problem.ends = ends;
    problem.classes = widest + 1;

    // Reused per-thread scratch: the SoA job block.
    thread_local JobBlock block;
    thread_local std::vector<double> grid_kw;
    thread_local std::vector<std::size_t> arrivals;

    for (std::size_t first = range.begin; first < range.end;
         first += kJobBlock) {
        const std::size_t count =
            std::min<std::size_t>(kJobBlock, range.end - first);
        jobBlockAt(setup.jobs, first, count, block);
        grid_kw.resize(count);
        arrivals.resize(count);

        for (std::size_t i = 0; i < count; ++i) {
            // powerAtUtilization()'s range check in stream order, so
            // its fatal names the first offending job like the
            // oracle; then the grid draw of the job (IT power x PUE)
            // in kW, with the watts tree idle + (peak - idle) * u.
            const double u = block.utilization[i];
            if (!(u >= 0.0 && u <= 1.0))
                (void)server::powerAtUtilization(setup.platform, u);
            grid_kw[i] = (idle_w + span_w * u) / 1000.0 * setup.pue;
            arrivals[i] = static_cast<std::size_t>(
                block.arrival_hours[i] / step);
        }

        for (std::size_t i = 0; i < count; ++i) {
            const double duration = block.duration_hours[i];
            const double job_grid_kw = grid_kw[i];
            const bool deferrable = block.deferrable[i] != 0;
            const double job_slack = block.slack_hours[i];

            // Eq. 1's embodied share, once per distinct lifetime; in
            // lifetime order, so a too-short lifetime fails with the
            // oracle's message (it checks the scenarios in order).
            for (std::size_t l = 0; l < lifetimes.size(); ++l) {
                embodied_sums[l] +=
                    util::asGrams(lifetimes[l].allocateEmbodied(
                        util::grams(embodied_g),
                        util::hours(duration)));
            }

            // The window shape every region shares for this job, and
            // its shift count per window class: the arrival sample,
            // the per-job slack (deadline / migrate) and the
            // fleet-wide greedy window.
            const auto full_samples =
                static_cast<std::size_t>(duration / step);
            problem.start0 = arrivals[i];
            problem.rem = full_samples % n;
            problem.cycles = static_cast<double>(full_samples / n);
            problem.tail_hours =
                duration - static_cast<double>(full_samples) * step;
            const auto shifts = [&](core::DeferralPolicy kind) {
                return static_cast<std::size_t>(
                           allowedSlackHours(setup, kind, deferrable,
                                             job_slack) /
                           step) +
                       1;
            };
            ends[kWindowSlack] =
                shifts(core::DeferralPolicy::DeadlineBounded);
            ends[kWindowGreedy] =
                shifts(core::DeferralPolicy::GreedyGreenest);
            kt.placement_scan(problem, best_shift.data(),
                              best_weight.data());
            const double *cost0 = best_weight.data();

            energy_kwh += job_grid_kw * duration;
            busy_hours += duration;
            for (std::size_t r = 0; r < n_regions; ++r)
                baseline_sums[r] += job_grid_kw * cost0[r];

            // Cross-region winner per class: the lexicographic minimum
            // of (cost, shift) over the regions' best starts, the
            // lowest region on a tie. That is the first minimum of the
            // oracle's shift-major, region-minor strict-< scan (costs
            // are never NaN, see fleetSetupFromJson()).
            std::size_t win_region[kWindowClasses] = {};
            for (std::size_t c = kWindowSlack; c <= widest; ++c) {
                if (!cross_class[c])
                    continue;
                const std::size_t *shift = best_shift.data() + c * n_regions;
                const double *weight = best_weight.data() + c * n_regions;
                std::size_t best = 0;
                for (std::size_t r = 1; r < n_regions; ++r) {
                    if (weight[r] < weight[best] ||
                        (weight[r] == weight[best] &&
                         shift[r] < shift[best]))
                        best = r;
                }
                win_region[c] = best;
            }

            for (std::size_t g = 0; g < groups.size(); ++g) {
                const PlacementGroup &group = groups[g];
                const std::size_t c = group.window_class;
                // A uniform group's operational sum is its home
                // region's baseline sum, filled in at the end.
                if (c == kWindowUnit)
                    continue;
                const std::size_t home = group.home_region;
                // The oracle's initial candidate home@0 shadows every
                // start that only ties it, so a winner at home's
                // shift-0 cost keeps the job at home.
                std::size_t region = home;
                if (group.cross_region &&
                    best_weight[c * n_regions + win_region[c]] !=
                        cost0[home])
                    region = win_region[c];
                GroupSums &sums = group_sums[g];
                sums.deferred +=
                    best_shift[c * n_regions + region] != 0 ? 1 : 0;
                sums.migrated += region != home ? 1 : 0;
                sums.operational_g +=
                    job_grid_kw * best_weight[c * n_regions + region];
            }
        }
        core::countEq1Evals(count * setup.scenarios.size());
    }

    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::size_t home = groups[g].home_region;
        const bool uniform = groups[g].window_class == kWindowUnit;
        for (const std::size_t s : groups[g].scenarios) {
            FleetAccumulator &acc = accumulators[s];
            acc.jobs = range.size();
            acc.deferred = group_sums[g].deferred;
            acc.migrated = group_sums[g].migrated;
            acc.operational_g = uniform ? baseline_sums[home]
                                        : group_sums[g].operational_g;
            acc.embodied_g = embodied_sums[lifetime_of[s]];
            acc.energy_kwh = energy_kwh;
            acc.busy_hours = busy_hours;
            acc.baseline_g = baseline_sums[home];
        }
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

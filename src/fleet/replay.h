/**
 * @file
 * Trace-driven fleet replay: stream a deterministic job stream
 * (job_stream.h) against regional carbon-intensity series
 * (data/intensity_series.h) under the core/scheduling deferral
 * policies, attributing per-job operational + amortized-embodied
 * carbon via the server layer's power/PUE/Eq. 1 machinery.
 *
 * Determinism contract: every job is a pure function of
 * (params, index); every placement is a pure function of
 * (setup, job); and per-chunk results land in mergeable
 * FleetAccumulators that reduce in chunk order. A replay is therefore
 * bit-identical at any thread x shard x SIMD split of the same plan
 * (the chunk layout itself is pinned by the plan, see sweep/plan.h).
 *
 * Layering: data < core < server < fleet < sweep domains.
 *
 * Setup JSON (the `config` object of a "fleet" sweep plan):
 *
 *   {
 *     "pue": 1.3,
 *     "lifetime_years": [4],               // churn axis
 *     "policies": ["uniform", "greedy", "deadline", "migrate"],
 *     "regions": [ { "name": "...", ... intensity series ... }, ... ],
 *     "jobs": { ... job stream ... }
 *   }
 *
 * Scenarios are the full policy x home-region x lifetime grid, in
 * that nesting order.
 */

#ifndef ACT_FLEET_REPLAY_H
#define ACT_FLEET_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "config/json.h"
#include "core/scheduling.h"
#include "fleet/job_stream.h"
#include "server/datacenter.h"
#include "util/parallel.h"
#include "util/units.h"

namespace act::fleet {

/**
 * Every region's intensity series, interleaved region-minor so that
 * one lane load reads the same sample of consecutive regions: entry
 * (i, r) of a table sits at [i * regions + r]. The prefix sums make
 * any cyclic window cost O(1) to evaluate. Both tables carry
 * util::simd::kMaxLanes - 1 zeros past their last row, so the block
 * kernel's lane loads at the last region stay in bounds.
 */
struct RegionTable
{
    std::size_t regions = 0;
    /** Samples per region (the series length). */
    std::size_t n = 0;
    double step_hours = 0.0;
    /** Sum of region r's samples [0, i); n + 1 rows. */
    std::vector<double> prefix;
    /** Region r's sample i; n rows. */
    std::vector<double> samples;

    double
    prefixAt(std::size_t region, std::size_t i) const
    {
        return prefix[i * regions + region];
    }
    /** Sample i of region r, cyclic in i. */
    double
    sampleAt(std::size_t region, std::size_t i) const
    {
        return samples[(i % n) * regions + region];
    }
};

/** One cell of the policy x region x churn grid. */
struct FleetScenario
{
    std::string label;
    core::PolicySpec policy;
    std::size_t home_region = 0;
    util::Duration lifetime = util::years(4.0);
};

/** Everything a replay chunk needs, resolved once per process. */
struct FleetSetup
{
    server::ServerPlatform platform;
    double pue = 1.2;
    JobStreamParams jobs;
    /** Region names in plan order, the table's region index. */
    std::vector<std::string> region_names;
    RegionTable intensity;
    std::vector<FleetScenario> scenarios;
};

/**
 * Parse a fleet setup from a sweep plan's config object; @p seed
 * (the plan seed) becomes the job stream's base seed. Throws
 * config::JsonTypeError, naming the field and its section, on
 * malformed input, empty regions, regions whose series disagree on
 * length or step, a region whose samples do not sum to a finite
 * number (a window cost would then be inf - inf), or a jobs field in
 * hours longer than 2^53 samples (its sample count would not fit a
 * cast to an integer).
 */
FleetSetup fleetSetupFromJson(const config::JsonValue &config,
                              std::uint64_t seed);

/** Mergeable per-scenario totals of one replay chunk. */
struct FleetAccumulator
{
    std::uint64_t jobs = 0;
    /** Jobs whose start slipped past their arrival sample. */
    std::uint64_t deferred = 0;
    /** Jobs placed outside their home region. */
    std::uint64_t migrated = 0;
    double operational_g = 0.0;
    double embodied_g = 0.0;
    /** Grid energy (IT draw x PUE). */
    double energy_kwh = 0.0;
    double busy_hours = 0.0;
    /** Counterfactual operational carbon of running every job at its
     *  arrival sample in its home region (the savings baseline). */
    double baseline_g = 0.0;

    /** Fold @p other in (associative over ordered reduction). */
    void add(const FleetAccumulator &other);
};

/**
 * Replay jobs [range.begin, range.end) of the stream against every
 * scenario; result[s] accumulates scenario s. Placement quantizes to
 * sample starts: a job may start at any of the samples within its
 * policy-allowed slack of its arrival, and takes the window with the
 * lowest duration-weighted intensity (ties -> earliest start, then
 * lowest region index).
 *
 * Batched implementation (DESIGN.md §15): jobs are generated in SoA
 * blocks, and one call of the SIMD block kernel per 512-job block
 * scans every job's shift windows for all regions together (a lane
 * is a region) and adds each placement rule's per-home-region sums in
 * lanes. A job whose windows end before the series does keeps only
 * each window's minimum cost, since (minimum < shift-0 cost) is
 * whether it defers, and picks its cross-region winner without a
 * data-dependent branch. Where two regions share the cross-region
 * minimum, the tied regions are scanned again for the first shift
 * that reaches it (the oracle's tie-break); a job whose window wraps
 * the series end also tracks each minimum's shift. Scenarios sharing a
 * (policy kind, home region) pair share those sums, and the
 * cross-region choice is made once per job, not once per home region.
 * Totals are kept as one running sum per distinct key -- job stream,
 * lifetime, home region, placement rule -- and copied into each
 * scenario's accumulator at the end, so Eq. 1's embodied share is
 * computed once per (job, distinct lifetime) and a uniform scenario's
 * operational sum is its home region's baseline sum. Every scenario
 * still receives its adds in job order: the result is bit-identical
 * to replayJobsOracle() at every dispatch level, and "core.eq1.evals"
 * grows by jobs x scenarios on both paths.
 */
std::vector<FleetAccumulator> replayJobs(const FleetSetup &setup,
                                         util::IndexRange range);

/**
 * The retained scalar reference: one jobAt() call per job, one full
 * weightAt() scan per scenario, no grouping, no kernels. The batched
 * replayJobs() must match it bit-for-bit (tested in
 * tests/sweep_fleet_domain_test.cc); kept as the semantic anchor of
 * the placement contract, not for production use.
 */
std::vector<FleetAccumulator>
replayJobsOracle(const FleetSetup &setup, util::IndexRange range);

/** Chunk payload codec (bit-exact doubles, exact counts). Decoding
 *  throws config::JsonTypeError naming the field when a count is not a
 *  non-negative integer or a sum is not a finite number. */
config::JsonValue toJson(const FleetAccumulator &accumulator);
FleetAccumulator fleetAccumulatorFromJson(const config::JsonValue &value);

} // namespace act::fleet

#endif // ACT_FLEET_REPLAY_H

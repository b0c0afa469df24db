#include "sweep/domains.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>

#include "accel/design_space.h"
#include "core/embodied.h"
#include "core/eval_plan.h"
#include "core/model_config.h"
#include "data/soc_db.h"
#include "fleet/replay.h"
#include "mobile/platform.h"
#include "pkg/package.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/units.h"

namespace act::sweep {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

/**
 * Stamp (or verify) the model-config fingerprint. Every shard runs
 * this, so shards built from different data vintages fail here rather
 * than merging into a silently inconsistent result.
 */
void
resolveFingerprint(SweepPlan &plan)
{
    const std::string current = core::modelConfigFingerprint();
    if (plan.fingerprint.empty()) {
        plan.fingerprint = current;
    } else if (plan.fingerprint != current) {
        util::fatal("sweep plan fingerprint ", plan.fingerprint,
                    " does not match this build's model data (",
                    current, ") -- the plan is stale; clear its "
                    "'fingerprint' field to re-author it");
    }
}

/** The plan config's "fab" section; the defaults when it has none. */
core::FabParams
planFab(const SweepPlan &plan)
{
    if (!plan.config.isObject() || !plan.config.contains("fab"))
        return core::FabParams{};
    return config::inContext(
        [&] { return core::fabParamsFromJson(plan.config.at("fab")); },
        "fab");
}

// ---------------------------------------------------------------------
// cpa_montecarlo: Eq. 5 CPA uncertainty at a fixed node.
// ---------------------------------------------------------------------

/** How a sampled value lands in FabParams. */
enum class FabField
{
    CiFab,
    Yield,
    Abatement,
};

struct CpaMonteCarloConfig
{
    double node_nm = 0.0;
    core::FabParams base_fab;
    std::vector<dse::UncertainParameter> parameters;
    std::vector<FabField> fields;
};

constexpr config::Choice<FabField> kFabFields[] = {
    {"ci_fab_g_per_kwh", FabField::CiFab},
    {"yield", FabField::Yield},
    {"abatement", FabField::Abatement},
};

constexpr config::Choice<dse::Distribution> kDistributions[] = {
    {"uniform", dse::Distribution::Uniform},
    {"triangular", dse::Distribution::Triangular},
};

/**
 * The values the FabParams field @p field admits. A parameter's
 * [low, high] range must lie inside, so no sample can fail the
 * kernel's per-sample checks on a worker thread.
 */
config::Interval
fieldDomain(FabField field)
{
    if (field == FabField::CiFab)
        return config::atLeast(0.0);
    if (field == FabField::Yield)
        return {0.0, 1.0, true, false};
    return config::closed(0.90, 1.0);
}

CpaMonteCarloConfig
parseCpaMonteCarloConfig(const SweepPlan &plan)
{
    if (!plan.config.isObject()) {
        throw config::JsonTypeError(
            "cpa_montecarlo plan needs a 'config' object");
    }
    CpaMonteCarloConfig parsed;
    parsed.node_nm =
        config::number(plan.config, "node_nm", config::above(0.0));
    parsed.base_fab = planFab(plan);
    const JsonArray &entries = plan.config.at("parameters").asArray();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        config::inContext(
            [&] {
                const JsonValue &entry = entries[i];
                const FabField field =
                    config::choice(entry, "name", kFabFields);
                dse::UncertainParameter parameter;
                parameter.name = entry.at("name").asString();
                parameter.distribution =
                    config::choice(entry, "distribution",
                                   dse::Distribution::Uniform,
                                   kDistributions);
                parameter.low =
                    config::number(entry, "low", fieldDomain(field));
                parameter.high =
                    config::number(entry, "high", fieldDomain(field));
                parameter.baseline = config::number(
                    entry, "baseline",
                    (parameter.low + parameter.high) / 2.0);
                parsed.parameters.push_back(std::move(parameter));
                parsed.fields.push_back(field);
            },
            "parameters[", i, "]");
    }
    return parsed;
}

std::function<double(const std::vector<double> &)>
cpaModel(const CpaMonteCarloConfig &config)
{
    return [config](const std::vector<double> &values) {
        core::FabParams fab = config.base_fab;
        for (std::size_t i = 0; i < values.size(); ++i) {
            switch (config.fields[i]) {
              case FabField::CiFab:
                fab.ci_fab = util::gramsPerKilowattHour(values[i]);
                break;
              case FabField::Yield:
                fab.yield = values[i];
                break;
              case FabField::Abatement:
                fab.abatement = values[i];
                break;
            }
        }
        return core::carbonPerArea(fab, config.node_nm).value();
    };
}

/** Compile the config into the equivalent Eq. 5 plan: binding i feeds
 *  the same FabParams field cpaModel() mutates for parameter i. */
core::EvalPlan
cpaPlan(const CpaMonteCarloConfig &config)
{
    std::vector<core::EvalInput> bindings;
    bindings.reserve(config.fields.size());
    for (const FabField field : config.fields) {
        switch (field) {
          case FabField::CiFab:
            bindings.push_back(core::EvalInput::CiFab);
            break;
          case FabField::Yield:
            bindings.push_back(core::EvalInput::Yield);
            break;
          case FabField::Abatement:
            bindings.push_back(core::EvalInput::Abatement);
            break;
        }
    }
    return core::EvalPlan::forNode(config.base_fab, config.node_nm,
                                   bindings);
}

void
prepareCpaMonteCarlo(SweepPlan &plan)
{
    if (plan.items == 0)
        plan.items = 10'000;
    if (plan.grain == 0)
        plan.grain = dse::kMonteCarloChunk;
    dse::validateMonteCarloInputs(parseCpaMonteCarloConfig(plan).parameters,
                                  plan.items);
    resolveFingerprint(plan);
}

JsonChunkEvaluator
cpaMonteCarloEvaluator(const SweepPlan &plan)
{
    // Parsed and compiled once; shared read-only by every concurrent
    // chunk. Chunks run the fused plan kernel (sample + evaluate per
    // cache-resident sub-block) over a reused thread-local SoA
    // scratch -- same RNG consumption order as the closure path, so
    // partials (and merged results) keep their bits.
    auto config = std::make_shared<const CpaMonteCarloConfig>(
        parseCpaMonteCarloConfig(plan));
    const core::EvalPlan compiled = cpaPlan(*config);
    return [config, compiled](std::size_t, util::IndexRange range,
                              util::Xorshift64Star &rng) {
        thread_local dse::MonteCarloScratch scratch;
        return toJson(dse::monteCarloPlanChunk(
            config->parameters, compiled, range, rng, scratch));
    };
}

std::string
summarizeCpaMonteCarlo(const SweepPlan &plan, const JsonArray &results)
{
    const dse::MonteCarloResult result =
        monteCarloResultFromPayloads(plan.items, results);
    std::ostringstream out;
    out << "CPA Monte Carlo, " << result.samples << " samples: mean "
        << util::formatSig(result.mean, 4) << " g CO2/cm2, stddev "
        << util::formatSig(result.stddev, 3) << ", p5/p50/p95 "
        << util::formatSig(result.p5, 4) << " / "
        << util::formatSig(result.p50, 4) << " / "
        << util::formatSig(result.p95, 4) << "\n";
    return out.str();
}

// ---------------------------------------------------------------------
// mobile: the Fig. 8 SoC design space.
// ---------------------------------------------------------------------

void
prepareMobile(SweepPlan &plan)
{
    const std::size_t socs =
        data::SocDatabase::instance().records().size();
    if (plan.items == 0)
        plan.items = socs;
    else if (plan.items != socs)
        util::fatal("mobile sweep plan pins ", plan.items,
                    " items but the SoC database has ", socs);
    planFab(plan); // validate any fab override now, on every shard
    resolveFingerprint(plan);
}

JsonValue
designPointToJson(const core::DesignPoint &point)
{
    JsonObject object;
    object["name"] = JsonValue(point.name);
    object["embodied_kg"] =
        JsonValue(util::asKilograms(point.embodied));
    object["energy_j"] = JsonValue(util::asJoules(point.energy));
    object["delay_s"] = JsonValue(util::asSeconds(point.delay));
    object["area_mm2"] =
        JsonValue(util::asSquareMillimeters(point.area));
    return JsonValue(std::move(object));
}

JsonChunkEvaluator
mobileEvaluator(const SweepPlan &plan)
{
    const core::FabParams fab = planFab(plan);
    return [fab](std::size_t, util::IndexRange range,
                 util::Xorshift64Star &) {
        const auto records = data::SocDatabase::instance().records();
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t i = range.begin; i < range.end; ++i) {
            points.push_back(designPointToJson(
                mobile::designPoint(records[i], fab)));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeMobile(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    std::string best_name;
    double best_kg = 0.0;
    for (std::size_t c = 0; c < results.size(); ++c) {
        config::inContext(
            [&] {
                for (const JsonValue &point : results[c].asArray()) {
                    const double kg = config::number(point, "embodied_kg");
                    if (count == 0 || kg < best_kg) {
                        best_kg = kg;
                        best_name = point.at("name").asString();
                    }
                    ++count;
                }
            },
            "chunk ", c);
    }
    std::ostringstream out;
    out << "mobile design space, " << count
        << " SoCs: minimum embodied " << util::formatSig(best_kg, 3)
        << " kg CO2 (" << best_name << ")\n";
    return out.str();
}

// ---------------------------------------------------------------------
// accel: the Fig. 12 NPU design-space walk, node x MAC count.
// ---------------------------------------------------------------------

struct AccelConfig
{
    std::vector<double> nodes;
    core::FabParams fab;
};

AccelConfig
parseAccelConfig(const SweepPlan &plan)
{
    AccelConfig parsed;
    if (plan.config.isObject() && plan.config.contains("nodes")) {
        parsed.nodes = config::numbers(plan.config, "nodes",
                                       config::closed(3.0, 28.0));
        if (parsed.nodes.empty()) {
            config::badField("nodes", "a non-empty array",
                             plan.config.at("nodes"));
        }
    } else {
        // The Fig. 13 (right) node walk, newest last.
        parsed.nodes = {28.0, 20.0, 16.0, 10.0, 7.0, 5.0, 3.0};
    }
    parsed.fab = planFab(plan);
    return parsed;
}

void
prepareAccel(SweepPlan &plan)
{
    const AccelConfig config = parseAccelConfig(plan);
    const std::size_t items =
        config.nodes.size() * accel::macSweep().size();
    if (plan.items == 0)
        plan.items = items;
    else if (plan.items != items)
        util::fatal("accel sweep plan pins ", plan.items,
                    " items but the config spans ", items,
                    " (nodes x MAC configurations)");
    resolveFingerprint(plan);
}

JsonChunkEvaluator
accelEvaluator(const SweepPlan &plan)
{
    auto config =
        std::make_shared<const AccelConfig>(parseAccelConfig(plan));
    // Eq. 5 depends only on (fab, node): evaluate it once per node up
    // front so chunk evaluation is pure arithmetic.
    auto cpas = std::make_shared<std::vector<util::CarbonPerArea>>();
    cpas->reserve(config->nodes.size());
    for (const double node : config->nodes)
        cpas->push_back(core::carbonPerArea(config->fab, node));
    auto model = std::make_shared<const accel::NpuModel>();
    return [config, cpas, model](std::size_t, util::IndexRange range,
                                 util::Xorshift64Star &) {
        const std::vector<int> macs = accel::macSweep();
        const accel::Network &network =
            accel::referenceVisionNetwork();
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t k = range.begin; k < range.end; ++k) {
            const std::size_t node_index = k / macs.size();
            const std::size_t mac_index = k % macs.size();
            const accel::NpuConfig npu_config{
                macs[mac_index], config->nodes[node_index]};
            const accel::NpuEvaluation evaluation =
                model->evaluate(network, npu_config);
            JsonObject point;
            point["node_nm"] = JsonValue(npu_config.node_nm);
            point["macs"] =
                JsonValue(static_cast<double>(npu_config.mac_count));
            point["embodied_g"] = JsonValue(util::asGrams(
                (*cpas)[node_index] * evaluation.area));
            point["energy_per_frame_j"] =
                JsonValue(util::asJoules(evaluation.energy_per_frame));
            point["latency_s"] =
                JsonValue(util::asSeconds(evaluation.latency));
            point["fps"] = JsonValue(evaluation.frames_per_second);
            point["area_mm2"] = JsonValue(
                util::asSquareMillimeters(evaluation.area));
            point["utilization"] = JsonValue(evaluation.utilization);
            points.emplace_back(std::move(point));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeAccel(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    double best_g = 0.0;
    double best_node = 0.0;
    std::uint64_t best_macs = 0;
    for (std::size_t c = 0; c < results.size(); ++c) {
        config::inContext(
            [&] {
                for (const JsonValue &point : results[c].asArray()) {
                    const double grams = config::number(point, "embodied_g");
                    if (count == 0 || grams < best_g) {
                        best_g = grams;
                        best_node = config::number(point, "node_nm");
                        best_macs = config::count(point, "macs");
                    }
                    ++count;
                }
            },
            "chunk ", c);
    }
    std::ostringstream out;
    out << "NPU design space, " << count
        << " configurations: minimum embodied "
        << util::formatSig(best_g, 3) << " g CO2 ("
        << best_macs << " MACs @ "
        << util::formatSig(best_node, 3) << " nm)\n";
    return out.str();
}

// ---------------------------------------------------------------------
// chiplet: packaging-style x die-count walk over the pkg layer.
// ---------------------------------------------------------------------

struct ChipletSweepConfig
{
    double logic_area_mm2 = 0.0;
    double node_nm = 7.0;
    int max_chiplets = 8;
    /** Die-to-die interface area tax, growing with the cut count. */
    double interface_overhead = 0.10;
    core::DefectParams defects;
    core::FabParams fab;
    std::vector<pkg::PackagingStyle> styles;
    /** Optional fab-CI scenario column: each grid point is also
     *  evaluated with fab.ci_fab at every value here. */
    std::vector<double> ci_fab_g_per_kwh;
    /** Flattened (style, die count) grid, in item order. */
    std::vector<std::pair<pkg::PackagingStyle, int>> points;
};

ChipletSweepConfig
parseChipletConfig(const SweepPlan &plan)
{
    if (!plan.config.isObject())
        throw config::JsonTypeError("chiplet plan needs a 'config' object");
    ChipletSweepConfig parsed;
    parsed.logic_area_mm2 =
        config::number(plan.config, "logic_area_mm2", config::above(0.0));
    parsed.node_nm = config::number(plan.config, "node_nm", parsed.node_nm,
                                    config::above(0.0));
    // The grid is materialised, so the bound also caps its size.
    parsed.max_chiplets = static_cast<int>(config::count(
        plan.config, "max_chiplets", parsed.max_chiplets, {1, 1024}));
    parsed.interface_overhead =
        config::number(plan.config, "interface_overhead",
                       parsed.interface_overhead, config::atLeast(0.0));
    parsed.defects.defect_density_per_cm2 =
        config::number(plan.config, "defect_density_per_cm2",
                       parsed.defects.defect_density_per_cm2);
    parsed.fab = planFab(plan);
    if (plan.config.contains("styles")) {
        for (const JsonValue &style :
             plan.config.at("styles").asArray()) {
            parsed.styles.push_back(
                pkg::packagingStyleByName(style.asString()));
        }
        if (parsed.styles.empty()) {
            config::badField("styles", "a non-empty array",
                             plan.config.at("styles"));
        }
    } else {
        parsed.styles.assign(std::begin(pkg::kPackagingStyles),
                             std::end(pkg::kPackagingStyles));
    }
    if (plan.config.contains("ci_fab_g_per_kwh")) {
        parsed.ci_fab_g_per_kwh = config::numbers(
            plan.config, "ci_fab_g_per_kwh", config::atLeast(0.0));
    }
    // Monolithic only admits one die; multi-die styles walk the cut
    // counts 2..max so the grid never repeats the monolithic point.
    for (const pkg::PackagingStyle style : parsed.styles) {
        if (style == pkg::PackagingStyle::Monolithic) {
            parsed.points.emplace_back(style, 1);
        } else {
            for (int n = 2; n <= parsed.max_chiplets; ++n)
                parsed.points.emplace_back(style, n);
        }
    }
    if (parsed.points.empty()) {
        throw config::JsonTypeError(
            "chiplet config spans no grid points (multi-die styles need "
            "'max_chiplets' >= 2)");
    }
    return parsed;
}

/** The pkg spec for one grid point: the logic area cut into n dies
 *  plus the per-cut interface tax, under the style's defaults. */
pkg::PackageSpec
chipletGridSpec(const ChipletSweepConfig &config,
                pkg::PackagingStyle style, int num_dies)
{
    pkg::PackageSpec spec = pkg::PackageSpec::forStyle(style);
    spec.chiplets.push_back(pkg::splitLogicDie(
        util::squareMillimeters(config.logic_area_mm2), num_dies,
        config.node_nm, config.defects, config.interface_overhead));
    return spec;
}

void
prepareChiplet(SweepPlan &plan)
{
    const ChipletSweepConfig config = parseChipletConfig(plan);
    if (plan.items == 0)
        plan.items = config.points.size();
    else if (plan.items != config.points.size())
        util::fatal("chiplet sweep plan pins ", plan.items,
                    " items but the config spans ",
                    config.points.size(), " (styles x die counts)");
    resolveFingerprint(plan);
}

JsonChunkEvaluator
chipletEvaluator(const SweepPlan &plan)
{
    // The grid is small, so specs resolve once here; chunks share them
    // read-only.
    auto config = std::make_shared<const ChipletSweepConfig>(
        parseChipletConfig(plan));
    auto specs = std::make_shared<std::vector<pkg::PackageSpec>>();
    specs->reserve(config->points.size());
    for (const auto &[style, count] : config->points)
        specs->push_back(chipletGridSpec(*config, style, count));
    return [config, specs](std::size_t, util::IndexRange range,
                           util::Xorshift64Star &) {
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t k = range.begin; k < range.end; ++k) {
            const auto &[style, count] = config->points[k];
            const pkg::PackageSpec &spec = (*specs)[k];
            const pkg::PackageResult result =
                pkg::evaluatePackage(spec, config->fab);
            JsonObject point;
            point["style"] = JsonValue(
                std::string(pkg::packagingStyleName(style)));
            point["num_dies"] =
                JsonValue(static_cast<double>(count));
            point["total_g"] =
                JsonValue(util::asGrams(result.total));
            point["silicon_g"] =
                JsonValue(util::asGrams(result.silicon_embodied));
            point["substrate_g"] =
                JsonValue(util::asGrams(result.substrate_embodied));
            point["assembly_g"] =
                JsonValue(util::asGrams(result.assembly_embodied));
            point["min_die_yield"] = JsonValue(result.min_die_yield);
            point["package_yield"] = JsonValue(result.package_yield);
            if (!config->ci_fab_g_per_kwh.empty()) {
                core::FabParams fab = config->fab;
                JsonArray totals;
                totals.reserve(config->ci_fab_g_per_kwh.size());
                for (const double ci : config->ci_fab_g_per_kwh) {
                    fab.ci_fab = util::gramsPerKilowattHour(ci);
                    totals.emplace_back(util::asGrams(
                        pkg::evaluatePackage(spec, fab).total));
                }
                point["ci_fab_totals_g"] =
                    JsonValue(std::move(totals));
            }
            points.emplace_back(std::move(point));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeChiplet(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    double best_g = 0.0;
    std::string best_style;
    std::uint64_t best_dies = 0;
    for (std::size_t c = 0; c < results.size(); ++c) {
        config::inContext(
            [&] {
                for (const JsonValue &point : results[c].asArray()) {
                    const double grams = config::number(point, "total_g");
                    if (count == 0 || grams < best_g) {
                        best_g = grams;
                        best_style = point.at("style").asString();
                        best_dies = config::count(point, "num_dies");
                    }
                    ++count;
                }
            },
            "chunk ", c);
    }
    std::ostringstream out;
    out << "chiplet packaging sweep, " << count
        << " packages: minimum embodied " << util::formatSig(best_g, 4)
        << " g CO2 (" << best_style << ", " << best_dies << " "
        << (best_dies == 1 ? "die" : "dies") << ")\n";
    return out.str();
}

// ---------------------------------------------------------------------
// fleet: trace-driven job replay over regional intensity series.
// ---------------------------------------------------------------------

constexpr std::size_t kFleetDefaultJobs = 100000;
/** Pinned (not the items-relative automatic grain): the per-chunk
 *  accumulator sums make the chunk layout observable in the last ulp,
 *  so the default fleet layout is fixed by the plan. */
constexpr std::size_t kFleetDefaultGrain = 8192;

/** The fleet setup prepareFleet() stored in @p plan, or a fresh
 *  parse for a plan read back from a partial. */
std::shared_ptr<const fleet::FleetSetup>
fleetSetupOf(const SweepPlan &plan)
{
    if (plan.prepared) {
        return std::static_pointer_cast<const fleet::FleetSetup>(
            plan.prepared);
    }
    return std::make_shared<const fleet::FleetSetup>(
        fleet::fleetSetupFromJson(plan.config, plan.seed));
}

void
prepareFleet(SweepPlan &plan)
{
    // Parse eagerly so every shard rejects a bad config up front; the
    // evaluator and the summary reuse the parsed setup.
    plan.prepared = std::make_shared<const fleet::FleetSetup>(
        fleet::fleetSetupFromJson(plan.config, plan.seed));
    if (plan.items == 0)
        plan.items = kFleetDefaultJobs;
    if (plan.grain == 0)
        plan.grain = kFleetDefaultGrain;
    resolveFingerprint(plan);
}

JsonChunkEvaluator
fleetEvaluator(const SweepPlan &plan)
{
    return [setup = fleetSetupOf(plan)](std::size_t,
                                        util::IndexRange range,
                                        util::Xorshift64Star &) {
        // Jobs seed their own deriveSeed(seed, index) streams, so the
        // engine's per-chunk RNG goes unused: a job's placement is a
        // pure function of its index, independent of which chunk,
        // thread, or shard replays it.
        const std::vector<fleet::FleetAccumulator> accumulators =
            fleet::replayJobs(*setup, range);
        JsonArray payload;
        payload.reserve(accumulators.size());
        for (const fleet::FleetAccumulator &accumulator : accumulators)
            payload.push_back(toJson(accumulator));
        return JsonValue(std::move(payload));
    };
}

/** fleetResultFromPayloads() over an already parsed @p setup. */
std::vector<fleet::FleetAccumulator>
foldFleetPayloads(const fleet::FleetSetup &setup, const JsonArray &results)
{
    std::vector<fleet::FleetAccumulator> totals(setup.scenarios.size());
    for (std::size_t c = 0; c < results.size(); ++c) {
        if (!results[c].isArray() ||
            results[c].asArray().size() != totals.size()) {
            throw config::JsonTypeError(util::detail::concatenate(
                "chunk ", c, ": payload must be an array of ",
                totals.size(), " scenario accumulators"));
        }
        const JsonArray &payload = results[c].asArray();
        for (std::size_t s = 0; s < totals.size(); ++s) {
            totals[s].add(config::inContext(
                [&] { return fleet::fleetAccumulatorFromJson(payload[s]); },
                "chunk ", c, " scenario '", setup.scenarios[s].label, "'"));
        }
    }
    return totals;
}

std::string
summarizeFleet(const SweepPlan &plan, const JsonArray &results)
{
    const std::shared_ptr<const fleet::FleetSetup> setup =
        fleetSetupOf(plan);
    const std::vector<fleet::FleetAccumulator> totals =
        foldFleetPayloads(*setup, results);
    std::ostringstream out;
    out << "fleet replay, "
        << (totals.empty() ? 0 : totals.front().jobs) << " jobs x "
        << totals.size() << " scenarios:\n";
    for (std::size_t s = 0; s < totals.size(); ++s) {
        const fleet::FleetAccumulator &acc = totals[s];
        const double total_g = acc.operational_g + acc.embodied_g;
        const double saving = acc.operational_g > 0.0
                                  ? acc.baseline_g / acc.operational_g
                                  : 1.0;
        out << "  " << setup->scenarios[s].label << ": "
            << util::formatSig(total_g / 1000.0, 4) << " kg CO2 ("
            << util::formatSig(acc.operational_g / 1000.0, 4)
            << " op + "
            << util::formatSig(acc.embodied_g / 1000.0, 4)
            << " embodied), saving " << util::formatSig(saving, 4)
            << "x, deferred " << acc.deferred << ", migrated "
            << acc.migrated << "\n";
    }
    return out.str();
}

constexpr Domain kDomains[] = {
    {"cpa_montecarlo",
     "Eq. 5 CPA uncertainty at a fixed node (Monte Carlo)",
     prepareCpaMonteCarlo, cpaMonteCarloEvaluator,
     summarizeCpaMonteCarlo},
    {"mobile", "the Fig. 8 mobile-SoC design space, one item per SoC",
     prepareMobile, mobileEvaluator, summarizeMobile},
    {"accel", "the Fig. 12 NPU design-space walk, node x MAC count",
     prepareAccel, accelEvaluator, summarizeAccel},
    {"chiplet",
     "packaging style x die count over pkg::evaluatePackage",
     prepareChiplet, chipletEvaluator, summarizeChiplet},
    {"fleet",
     "trace-driven job replay over regional intensity series",
     prepareFleet, fleetEvaluator, summarizeFleet},
};

} // namespace

std::function<double(const std::vector<double> &)>
cpaMonteCarloScalarModel(const SweepPlan &plan)
{
    return cpaModel(parseCpaMonteCarloConfig(plan));
}

std::vector<dse::UncertainParameter>
cpaMonteCarloParameters(const SweepPlan &plan)
{
    return parseCpaMonteCarloConfig(plan).parameters;
}

std::vector<fleet::FleetAccumulator>
fleetResultFromPayloads(const SweepPlan &plan,
                        const config::JsonArray &results)
{
    return foldFleetPayloads(*fleetSetupOf(plan), results);
}

const Domain &
findDomain(std::string_view name)
{
    for (const Domain &domain : kDomains) {
        if (domain.name == name)
            return domain;
    }
    std::string known;
    for (const std::string_view known_name : domainNames()) {
        if (!known.empty())
            known += ", ";
        known += known_name;
    }
    util::fatal("unknown sweep domain '", std::string(name),
                "' (known: ", known,
                "; run 'act sweep --list-domains' for details)");
}

std::vector<std::string_view>
domainNames()
{
    std::vector<std::string_view> names;
    for (const Domain &domain : kDomains)
        names.push_back(domain.name);
    return names;
}

std::span<const Domain>
allDomains()
{
    return kDomains;
}

JsonValue
toJson(const dse::MonteCarloPartial &partial)
{
    JsonObject object;
    JsonArray outputs;
    outputs.reserve(partial.outputs.size());
    for (const double output : partial.outputs)
        outputs.emplace_back(output);
    object["outputs"] = JsonValue(std::move(outputs));
    object["sum"] = JsonValue(partial.sum);
    object["sum_squares"] = JsonValue(partial.sum_squares);
    return JsonValue(std::move(object));
}

dse::MonteCarloPartial
monteCarloPartialFromJson(const JsonValue &value)
{
    dse::MonteCarloPartial partial;
    partial.outputs = config::numbers(value, "outputs");
    partial.sum = config::number(value, "sum");
    partial.sum_squares = config::number(value, "sum_squares");
    return partial;
}

dse::MonteCarloResult
monteCarloResultFromPayloads(std::size_t samples,
                             const JsonArray &results)
{
    dse::MonteCarloPartial merged;
    merged.outputs.reserve(samples);
    for (std::size_t c = 0; c < results.size(); ++c) {
        merged = dse::mergePartial(
            std::move(merged),
            config::inContext(
                [&] { return monteCarloPartialFromJson(results[c]); },
                "chunk ", c));
    }
    return dse::finalizeMonteCarlo(samples, std::move(merged));
}

} // namespace act::sweep

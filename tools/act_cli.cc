/**
 * @file
 * `act` -- a command-line carbon calculator over the ACT model.
 *
 *   act list <devices|socs|storage|nodes|regions|sources>
 *   act cpa <node_nm> [options]           Eq. 5 carbon per area
 *   act logic <area_mm2> <node_nm> [options]   Eq. 4 die footprint
 *   act storage <technology> <gigabytes>       Eq. 6-8 footprint
 *   act device <name> [options]           Eq. 3 over a device BOM
 *   act soc <name> [options]              mobile platform summary
 *   act footprint --energy-kwh E [--ci-use g] --embodied-g C
 *                 --time-years T --lifetime-years LT    Eq. 1
 *   act sweep --list-domains              table of runnable domains
 *   act sweep --plan <plan.json> [--shards N --shard-index i]
 *             [--out <file>]     run a serialized sweep (or one shard)
 *   act merge <partial.json...> [--out <file>]   recombine shards
 *   act status <dir>                       fleet view over heartbeats
 *   act trace-merge <out> <traces...>      one Perfetto timeline
 *
 * Fab options: --fab-ci <g/kWh>  --yield <y>  --abatement <a>
 */

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "config/json.h"
#include "obs/heartbeat.h"
#include "obs/metrics_doc.h"
#include "obs/trace_merge.h"
#include "core/embodied.h"
#include "core/footprint.h"
#include "core/lifecycle.h"
#include "core/metrics.h"
#include "core/operational.h"
#include "data/device_json.h"
#include "data/soc_db.h"
#include "mobile/platform.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

using namespace act;

void
printUsage()
{
    std::cout <<
        "usage: act <command> [arguments] [fab options]\n"
        "\n"
        "commands:\n"
        "  list <devices|socs|storage|nodes|regions|sources>\n"
        "  cpa <node_nm>                  carbon per cm2 (Eq. 5)\n"
        "  logic <area_mm2> <node_nm>     die embodied carbon (Eq. 4)\n"
        "  storage <technology> <GB>      memory/storage carbon "
        "(Eq. 6-8)\n"
        "  device <name>                  device BOM footprint (Eq. 3)\n"
        "  device-file <path.json>        user-defined device footprint\n"
        "  lifecycle <name|path.json>     four-phase product estimate\n"
        "  soc <name>                     mobile platform summary\n"
        "  footprint --energy-kwh E [--ci-use g] --embodied-g C\n"
        "            --time-years T --lifetime-years LT   (Eq. 1)\n"
        "  sweep --list-domains           table of runnable domains\n"
        "  sweep --plan <plan.json> [--out <file>]\n"
        "        [--shards N --shard-index i]  run a serialized sweep;\n"
        "        with a shard spec, write one partial-result file\n"
        "        (plus a .heartbeat.json sidecar; ACT_HEARTBEAT=0\n"
        "        disables, ACT_HEARTBEAT_SECS sets the interval)\n"
        "  merge <partial.json...> [--out <file>]  recombine shard\n"
        "        partials into the single-process result document\n"
        "        [--metrics-out <file>]  write the aggregated\n"
        "        act.metrics.v2 document merged from the partials\n"
        "        [--metrics-prom <file>]  same, Prometheus text format\n"
        "  status <dir> [--stale-secs S] [--watch <secs>]  render a\n"
        "        fleet table from the heartbeat sidecars in <dir>\n"
        "  trace-merge <out> <trace.json...>  align per-process traces\n"
        "        on the wall clock into one Perfetto-loadable file\n"
        "\n"
        "fab options (for cpa/logic/device/soc):\n"
        "  --fab-ci <g/kWh>   fab carbon intensity "
        "(default: Taiwan grid + 25% solar)\n"
        "  --yield <y>        fab yield in (0, 1] (default 0.875)\n"
        "  --abatement <a>    gas abatement in [0.90, 1.0] "
        "(default 0.97)\n"
        "\n"
        "observability (any command):\n"
        "  --metrics          print the metrics-registry table after "
        "the command\n"
        "  --trace <file>     write a Chrome trace-event JSON profile "
        "(Perfetto)\n"
        "  --prom <file>      write this process's metrics snapshot "
        "in the\n"
        "                     Prometheus text format (implies "
        "--metrics)\n";
}

/** Flags that stand alone instead of taking a value. */
constexpr std::string_view kBooleanFlags[] = {
    "list-domains",
};

bool
isBooleanFlag(std::string_view name)
{
    for (const std::string_view flag : kBooleanFlags) {
        if (flag == name)
            return true;
    }
    return false;
}

/** @p token as std::from_chars reads it, all of it; nullopt when any
 *  part of it is not a number ("7x", "", "1e400"). */
std::optional<double>
wholeNumber(const std::string &token)
{
    double value = 0.0;
    const char *end = token.data() + token.size();
    const auto [ptr, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

/** "<what> expects <domain>, got <token>": a token that parses shows
 *  its shortest spelling, any other is quoted as typed. */
[[noreturn]] void
badArgument(const std::string &what, const std::string &domain,
            const std::string &token)
{
    const std::optional<double> value = wholeNumber(token);
    util::fatal(what, " expects ", domain, ", got ",
                value ? config::shortest(*value) : "'" + token + "'");
}

/** Argument @p what, spelled @p token, as a number in @p range (by
 *  default, any finite number). */
double
numberArgument(const std::string &what, const std::string &token,
               config::Interval range = {})
{
    const std::optional<double> value = wholeNumber(token);
    if (!value || !range.contains(*value))
        badArgument(what, config::domainName(range), token);
    return *value;
}

/** Argument @p what, spelled @p token, as an integer in @p range. */
std::size_t
countArgument(const std::string &what, const std::string &token,
              config::CountRange range = {})
{
    const std::optional<double> value = wholeNumber(token);
    std::uint64_t count = 0;
    if (!value || !range.fits(*value, count))
        badArgument(what, config::domainName(range), token);
    return count;
}

/** Fatal unless @p value, which a calculator subcommand is about to
 *  print as @p what, is finite: a finite input can overflow the model
 *  (`logic 1e308 7`), and inf is no answer, as for `sweep --out`. */
void
requireFinite(const std::string &what, double value)
{
    if (!std::isfinite(value))
        util::fatal(what, " is not a finite number (got ",
                    config::shortest(value), ")");
}

/** Write @p text to the file @p path; false when the open or a write
 *  fails, so that each caller picks its own diagnostic. */
bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path, std::ios::trunc);
    file << text;
    file.close();
    return !file.fail();
}

/** Simple flag map over argv[from..). */
class Args
{
  public:
    Args(int argc, char **argv, int from)
    {
        for (int i = from; i < argc; ++i) {
            const std::string arg = argv[i];
            if (util::startsWith(arg, "--")) {
                const std::string name = arg.substr(2);
                if (isBooleanFlag(name)) {
                    flags_.emplace_back(name, "true");
                    continue;
                }
                if (i + 1 >= argc)
                    util::fatal("flag ", arg, " needs a value");
                flags_.emplace_back(name, argv[++i]);
            } else {
                positional_.push_back(arg);
            }
        }
    }

    const std::vector<std::string> &positional() const
    { return positional_; }

    double
    numberOr(const std::string &name, double fallback,
             config::Interval range = {}) const
    {
        const std::string *value = find(name);
        return value != nullptr
                   ? numberArgument("flag --" + name, *value, range)
                   : fallback;
    }

    std::size_t
    countOr(const std::string &name, std::size_t fallback) const
    {
        const std::string *value = find(name);
        return value != nullptr ? countArgument("flag --" + name, *value)
                                : fallback;
    }

    std::string
    stringOr(const std::string &name, const std::string &fallback) const
    {
        const std::string *value = find(name);
        return value != nullptr ? *value : fallback;
    }

    bool
    has(const std::string &name) const
    {
        return find(name) != nullptr;
    }

  private:
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<std::string> positional_;

    /** The first value given for flag @p name, or nullptr. */
    const std::string *
    find(const std::string &name) const
    {
        for (const auto &[key, value] : flags_) {
            if (key == name)
                return &value;
        }
        return nullptr;
    }
};

core::FabParams
fabFromArgs(const Args &args)
{
    core::FabParams fab;
    if (args.has("fab-ci")) {
        fab.ci_fab = util::gramsPerKilowattHour(args.numberOr(
            "fab-ci", fab.ci_fab.value(), config::atLeast(0.0)));
    }
    fab.yield = args.numberOr("yield", fab.yield);
    fab.abatement = args.numberOr("abatement", fab.abatement);
    return fab;
}

int
cmdList(const std::string &what)
{
    if (what == "devices") {
        for (const auto &device :
             data::DeviceDatabase::instance().records()) {
            std::cout << device.name << " (" << device.release_year
                      << ", " << device.ics.size() << " BOM entries)\n";
        }
    } else if (what == "socs") {
        for (const auto &soc : data::SocDatabase::instance().records()) {
            std::cout << soc.name << " (" << soc.release_year << ", "
                      << soc.node_nm << " nm, "
                      << util::asSquareMillimeters(soc.die_area)
                      << " mm2)\n";
        }
    } else if (what == "storage") {
        for (data::StorageClass cls :
             {data::StorageClass::Dram, data::StorageClass::Ssd,
              data::StorageClass::Hdd}) {
            for (const auto &record : data::storageTable(cls)) {
                std::cout << record.name << " ("
                          << record.cps.value() << " g CO2/GB)\n";
            }
        }
    } else if (what == "nodes") {
        for (const auto &record :
             data::FabDatabase::instance().records()) {
            std::cout << record.name << " (EPA "
                      << record.epa.value() << " kWh/cm2)\n";
        }
    } else if (what == "regions") {
        for (const auto &record : data::regionTable()) {
            std::cout << record.name << " ("
                      << record.intensity.value() << " g CO2/kWh)\n";
        }
    } else if (what == "sources") {
        for (const auto &record : data::energySourceTable()) {
            std::cout << record.name << " ("
                      << record.intensity.value() << " g CO2/kWh)\n";
        }
    } else {
        util::fatal("unknown list target '", what, "'");
    }
    return 0;
}

int
cmdCpa(const Args &args)
{
    if (args.positional().empty())
        util::fatal("cpa needs a node in nm");
    const double nm =
        numberArgument("cpa <node_nm>", args.positional()[0]);
    const core::FabParams fab = fabFromArgs(args);
    const auto cpa = core::carbonPerArea(fab, nm);
    requireFinite("cpa result", cpa.value());
    std::cout << "CPA(" << nm << " nm) = "
              << util::formatSig(cpa.value(), 4) << " g CO2/cm2 "
              << "(CI_fab " << util::formatSig(fab.ci_fab.value(), 4)
              << " g/kWh, yield " << fab.yield << ", abatement "
              << fab.abatement << ")\n";
    return 0;
}

int
cmdLogic(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("logic needs <area_mm2> <node_nm>");
    const double mm2 = numberArgument(
        "logic <area_mm2>", args.positional()[0], config::atLeast(0.0));
    const double nm =
        numberArgument("logic <node_nm>", args.positional()[1]);
    const core::FabParams fab = fabFromArgs(args);
    const auto mass = core::logicEmbodied(
        util::squareMillimeters(mm2), nm, fab);
    requireFinite("logic result", util::asGrams(mass));
    std::cout << mm2 << " mm2 @ " << nm << " nm -> "
              << util::formatSig(util::asGrams(mass), 4) << " g CO2 ("
              << util::formatSig(util::asKilograms(mass), 3)
              << " kg)\n";
    return 0;
}

int
cmdStorage(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("storage needs <technology> <gigabytes>");
    const std::string technology = args.positional()[0];
    const double gb = numberArgument(
        "storage <gigabytes>", args.positional()[1], config::atLeast(0.0));
    const auto mass = core::storageEmbodied(
        util::gigabytes(gb), technology);
    requireFinite("storage result", util::asGrams(mass));
    std::cout << gb << " GB of " << technology << " -> "
              << util::formatSig(util::asGrams(mass), 4) << " g CO2\n";
    return 0;
}

int
printDeviceFootprint(const data::DeviceRecord &device, const Args &args)
{
    if (device.ics.empty()) {
        util::fatal("'", device.name,
                    "' has no modeled BOM (pre-28 nm era)");
    }
    const core::EmbodiedModel model(fabFromArgs(args));
    const auto footprint = model.evaluate(device);

    util::Table table({"IC", "kg CO2"});
    const auto add_row = [&](const std::string &label, util::Mass mass) {
        requireFinite("'" + label + "' footprint", util::asKilograms(mass));
        table.addRow(label, {util::asKilograms(mass)});
    };
    for (const auto &component : footprint.components)
        add_row(component.name, component.embodied);
    table.addSeparator();
    add_row("packaging (Nr = " + std::to_string(footprint.package_count) +
                ")",
            footprint.packaging);
    add_row("TOTAL", footprint.total());
    std::cout << device.name << " embodied IC footprint:\n"
              << table.render();
    return 0;
}

int
cmdDevice(const Args &args)
{
    if (args.positional().empty())
        util::fatal("device needs a name (see 'act list devices')");
    return printDeviceFootprint(
        data::DeviceDatabase::instance().byNameOrDie(
            args.positional()[0]),
        args);
}

int
cmdDeviceFile(const Args &args)
{
    if (args.positional().empty())
        util::fatal("device-file needs a JSON path");
    return printDeviceFootprint(
        data::loadDeviceFile(args.positional()[0]), args);
}

int
cmdLifecycle(const Args &args)
{
    if (args.positional().empty())
        util::fatal("lifecycle needs a device name or JSON path");
    const std::string target = args.positional()[0];
    const auto named =
        data::DeviceDatabase::instance().findByName(target);
    const data::DeviceRecord device =
        named ? *named : data::loadDeviceFile(target);
    const auto estimate =
        core::estimateLifecycle(device, fabFromArgs(args));

    util::Table table({"Phase", "kg CO2"});
    const auto add_row = [&](const std::string &phase, util::Mass mass) {
        requireFinite("lifecycle " + phase, util::asKilograms(mass));
        table.addRow(phase, {util::asKilograms(mass)});
    };
    add_row("IC manufacturing (ACT bottom-up)", estimate.ic_manufacturing);
    add_row("other manufacturing", estimate.other_manufacturing);
    add_row("transport", estimate.transport);
    add_row("use", estimate.use);
    add_row("end of life", estimate.end_of_life);
    table.addSeparator();
    add_row("TOTAL", estimate.total());
    std::cout << device.name << " life-cycle estimate:\n"
              << table.render();
    std::cout << "manufacturing share: "
              << util::formatFixed(
                     estimate.manufacturingShare() * 100.0, 1)
              << "%\n";
    return 0;
}

int
cmdSoc(const Args &args)
{
    if (args.positional().empty())
        util::fatal("soc needs a name (see 'act list socs')");
    const auto soc = data::SocDatabase::instance().byNameOrDie(
        args.positional()[0]);
    const core::FabParams fab = fabFromArgs(args);
    const auto embodied = mobile::platformEmbodied(soc, fab);
    const auto point = mobile::designPoint(soc, fab);
    requireFinite("SoC embodied", util::asGrams(embodied.soc));
    requireFinite("DRAM embodied", util::asGrams(embodied.dram));
    requireFinite("platform embodied", util::asGrams(embodied.total()));
    requireFinite("reference energy", util::asJoules(point.energy));

    util::Table table({"Quantity", "Value"});
    table.addRow({"process node",
                  util::formatSig(soc.node_nm, 3) + " nm"});
    table.addRow({"die area",
                  util::formatSig(
                      util::asSquareMillimeters(soc.die_area), 4) +
                      " mm2"});
    table.addRow({"aggregate score",
                  util::formatSig(soc.aggregateScore(), 4)});
    table.addRow({"TDP", util::formatSig(util::asWatts(soc.tdp), 3) +
                             " W"});
    table.addRow({"SoC embodied",
                  util::formatSig(util::asGrams(embodied.soc), 4) +
                      " g CO2"});
    table.addRow({"DRAM embodied",
                  util::formatSig(util::asGrams(embodied.dram), 4) +
                      " g CO2"});
    table.addRow({"platform embodied",
                  util::formatSig(util::asKilograms(
                      embodied.total()), 3) + " kg CO2"});
    table.addRow({"reference energy",
                  util::formatSig(util::asJoules(point.energy), 4) +
                      " J"});
    std::cout << soc.name << ":\n" << table.render();
    return 0;
}

int
cmdFootprint(const Args &args)
{
    if (!args.has("energy-kwh") || !args.has("embodied-g") ||
        !args.has("time-years") || !args.has("lifetime-years")) {
        util::fatal("footprint needs --energy-kwh, --embodied-g, "
                    "--time-years, --lifetime-years");
    }
    constexpr config::Interval kNonNegative = config::atLeast(0.0);
    const auto use = core::OperationalParams::withIntensity(
        util::gramsPerKilowattHour(args.numberOr(
            "ci-use", data::defaultUseIntensity().value(),
            kNonNegative)));
    const auto opcf = core::operationalFootprint(
        util::kilowattHours(
            args.numberOr("energy-kwh", 0.0, kNonNegative)),
        use);
    const auto cf = core::combineFootprint(
        opcf,
        util::grams(args.numberOr("embodied-g", 0.0, kNonNegative)),
        util::years(args.numberOr("time-years", 0.0, kNonNegative)),
        util::years(
            args.numberOr("lifetime-years", 1.0, config::above(0.0))));
    // The allocated embodied share is at most --embodied-g (T <= LT).
    requireFinite("footprint OPCF", util::asGrams(opcf));
    requireFinite("footprint CF", util::asGrams(cf.total()));
    std::cout << "OPCF = " << util::formatSig(util::asGrams(opcf), 4)
              << " g, embodied allocated = "
              << util::formatSig(
                     util::asGrams(cf.embodied_allocated), 4)
              << " g, CF = "
              << util::formatSig(util::asGrams(cf.total()), 4)
              << " g CO2 (embodied share "
              << util::formatFixed(cf.embodiedShare() * 100.0, 1)
              << "%)\n";
    return 0;
}

int
cmdSweep(const Args &args)
{
    if (args.has("list-domains")) {
        util::Table table({"Domain", "Description"});
        for (const sweep::Domain &domain : sweep::allDomains())
            table.addRow({std::string(domain.name),
                          std::string(domain.description)});
        std::cout << table.render();
        return 0;
    }
    if (!args.has("plan"))
        util::fatal("sweep needs --plan <plan.json> (or "
                    "--list-domains to see what can run)");
    const std::string plan_path = args.stringOr("plan", "");
    // Domains parse their config eagerly in prepare(), so a mistyped
    // config field surfaces here too.
    sweep::SweepPlan plan = config::loadJsonAs(
        plan_path, "sweep plan", [](const config::JsonValue &document) {
            sweep::SweepPlan parsed = sweep::sweepPlanFromJson(document);
            sweep::findDomain(parsed.domain).prepare(parsed);
            return parsed;
        });
    const sweep::Domain &domain = sweep::findDomain(plan.domain);
    const std::string out = args.stringOr("out", "");

    if (!args.has("shards") && !args.has("shard-index")) {
        const config::JsonValue doc =
            sweep::fullSweepResult(plan, domain.evaluator(plan));
        if (!out.empty())
            config::saveJsonFile(out, doc);
        std::cout << domain.summarize(
                         plan, doc.at("results").asArray())
                  << "\n";
        return 0;
    }

    sweep::ShardSpec shard;
    shard.shard_count = args.countOr("shards", 1);
    shard.shard_index = args.countOr("shard-index", 0);
    if (out.empty())
        util::fatal("a sharded sweep needs --out <partial.json>");

    sweep::ShardRunOptions options;
    if (util::envBool("ACT_HEARTBEAT", true))
        options.heartbeat_path = obs::heartbeatPathFor(out);
    options.heartbeat_interval_s = static_cast<double>(
        util::envInt("ACT_HEARTBEAT_SECS", 1, 0, 3600));

    sweep::ShardResult partial =
        sweep::runShardedSweep(plan, shard, domain.evaluator(plan),
                               options);
    // Telemetry rides along in the partial (and only there): the
    // merged result document is byte-identical either way.
    if (util::metricsEnabled()) {
        partial.metrics = obs::metricsToJson(
            util::MetricsRegistry::instance().snapshot());
    }
    config::saveJsonFile(out, sweep::toJson(partial));
    std::cout << "shard " << shard.shard_index << "/"
              << shard.shard_count << " of '" << plan.domain
              << "': chunks [" << partial.chunk_begin << ", "
              << partial.chunk_begin + partial.chunks.size()
              << ") -> " << out << "\n";
    return 0;
}

int
cmdMerge(const Args &args)
{
    if (args.positional().empty())
        util::fatal("merge needs at least one partial-result file");
    std::vector<sweep::ShardResult> partials;
    partials.reserve(args.positional().size());
    for (const std::string &path : args.positional())
        partials.push_back(config::loadJsonAs(path, "sweep partial",
                                              sweep::shardResultFromJson));
    // Keep the plan and the telemetry; the payloads move into the
    // merged document.
    const sweep::SweepPlan plan = partials.front().plan;
    std::vector<config::JsonValue> metrics;
    for (sweep::ShardResult &partial : partials)
        metrics.push_back(std::move(partial.metrics));
    const config::JsonValue merged =
        sweep::mergeShards(std::move(partials));

    // Aggregate whatever telemetry the partials carried (absent
    // sections are fine -- shards may mix metrics on and off).
    std::vector<config::JsonValue> metric_docs;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (metrics[i].isNull())
            continue;
        metric_docs.push_back(obs::validateMetricsDoc(
            metrics[i], "sweep partial '" + args.positional()[i] + "'"));
    }
    // The summary reads every payload, so a corrupt one fails here,
    // naming its chunk, before --out is written.
    const std::string summary =
        config::readJsonAs("sweep partials", [&] {
            return sweep::findDomain(plan.domain)
                .summarize(plan, merged.at("results").asArray());
        });
    const std::string out = args.stringOr("out", "");
    if (!out.empty())
        config::saveJsonFile(out, merged);
    const std::string metrics_out = args.stringOr("metrics-out", "");
    const std::string metrics_prom = args.stringOr("metrics-prom", "");
    if (!metric_docs.empty() || !metrics_out.empty() ||
        !metrics_prom.empty()) {
        const config::JsonValue aggregated =
            obs::mergeMetricsDocs(metric_docs);
        if (!metrics_out.empty())
            config::saveJsonFile(metrics_out, aggregated);
        if (!metrics_prom.empty() &&
            !writeTextFile(metrics_prom, obs::renderPrometheus(aggregated)))
            util::fatal("cannot write '", metrics_prom, "'");
        if (!metric_docs.empty()) {
            std::cout << "--- merged metrics (" << metric_docs.size()
                      << " of " << metrics.size() << " shards) ---\n"
                      << obs::renderMetricsDocTable(aggregated);
        }
    }

    std::cout << summary << "\n";
    return 0;
}

int
cmdStatus(const Args &args)
{
    const std::string directory = args.positional().empty()
                                      ? std::string(".")
                                      : args.positional()[0];
    const double stale_secs =
        args.numberOr("stale-secs", 15.0, config::atLeast(0.0));
    // Bounded, so the sleep's conversion to clock ticks cannot
    // overflow.
    const double watch_secs =
        args.numberOr("watch", 0.0, config::closed(0.0, 3600.0));

    for (;;) {
        const auto heartbeats = obs::loadHeartbeatDirectory(directory);
        if (heartbeats.empty()) {
            std::cout << "no " << obs::kHeartbeatSuffix << " files in '"
                      << directory << "'\n";
        } else {
            std::cout << obs::renderFleetTable(
                heartbeats, obs::wallClockSeconds(), stale_secs);
        }
        if (watch_secs <= 0.0)
            break;
        std::cout.flush();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(watch_secs));
        std::cout << "\n";
    }
    return 0;
}

int
cmdTraceMerge(const Args &args)
{
    if (args.positional().size() < 2)
        util::fatal("trace-merge needs <out> and at least one trace "
                    "file");
    const std::string out = args.positional()[0];
    const std::vector<std::string> inputs(
        args.positional().begin() + 1, args.positional().end());
    obs::mergeTraceFiles(out, inputs);
    std::cout << "merged " << inputs.size() << " trace"
              << (inputs.size() == 1 ? "" : "s") << " -> " << out
              << "\n";
    return 0;
}

int
runCommand(const std::string &command, const Args &args)
{
    TRACE_SPAN("cli", command);
    if (command == "list") {
        if (args.positional().empty())
            act::util::fatal("list needs a target");
        return cmdList(args.positional()[0]);
    }
    if (command == "cpa")
        return cmdCpa(args);
    if (command == "logic")
        return cmdLogic(args);
    if (command == "storage")
        return cmdStorage(args);
    if (command == "device")
        return cmdDevice(args);
    if (command == "device-file")
        return cmdDeviceFile(args);
    if (command == "lifecycle")
        return cmdLifecycle(args);
    if (command == "soc")
        return cmdSoc(args);
    if (command == "footprint")
        return cmdFootprint(args);
    if (command == "sweep")
        return cmdSweep(args);
    if (command == "merge")
        return cmdMerge(args);
    if (command == "status")
        return cmdStatus(args);
    if (command == "trace-merge")
        return cmdTraceMerge(args);

    act::util::fatal("unknown command '", command,
                     "' (try 'act --help')");
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel the observability flags off before command parsing so they
    // work uniformly with every command (and mirror ACT_METRICS /
    // ACT_TRACE).
    std::string prom_path;
    std::vector<char *> arguments;
    arguments.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0) {
            act::util::setMetricsEnabled(true);
            continue;
        }
        if (std::strcmp(argv[i], "--trace") == 0) {
            if (i + 1 >= argc)
                act::util::fatal("--trace needs a file path");
            act::util::setTraceFile(argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--prom") == 0) {
            if (i + 1 >= argc)
                act::util::fatal("--prom needs a file path");
            prom_path = argv[++i];
            continue;
        }
        arguments.push_back(argv[i]);
    }
    if (!prom_path.empty())
        act::util::setMetricsEnabled(true);
    argc = static_cast<int>(arguments.size());
    argv = arguments.data();

    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "help") == 0) {
        printUsage();
        return argc < 2 ? 1 : 0;
    }

    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    const int status = runCommand(command, args);

    // --prom implies --metrics, so both outputs render one snapshot.
    if (act::util::metricsEnabled()) {
        const act::config::JsonValue metrics = act::obs::metricsToJson(
            act::util::MetricsRegistry::instance().snapshot());
        if (!prom_path.empty() &&
            !writeTextFile(prom_path, act::obs::renderPrometheus(metrics)))
            act::util::warn("cannot write Prometheus snapshot to '",
                            prom_path, "'");
        std::cout << "\n--- metrics ---\n"
                  << act::obs::renderMetricsDocTable(metrics);
    }
    return status;
}

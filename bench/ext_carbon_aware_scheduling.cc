/**
 * @file
 * Extension study: operational-carbon savings from scheduling
 * deferrable work into the greenest hours of diurnal grid profiles --
 * the time-varying-CI direction flagged in Appendix A.1.
 *
 * Runs on the pluggable policy API (core::schedule over
 * data::IntensitySeries); pinned byte-for-byte against
 * bench/golden/ by the compare_carbon_aware ctest, which is what
 * proves the series refactor output-identical to the original
 * 24-hour implementation.
 */

#include <iostream>

#include "core/scheduling.h"
#include "data/carbon_intensity_db.h"
#include "report/experiment.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace act;
    const auto options = report::parseOptions(argc, argv);
    report::Experiment experiment(
        "Extension: carbon-aware scheduling",
        "deferrable-load savings on diurnal grid profiles");

    core::DailyLoad load;
    load.baseline = util::watts(100.0);
    load.deferrable_energy = util::kilowattHours(2.0);
    load.deferrable_capacity = util::watts(500.0);

    const auto taiwan = data::regionIntensity(data::Region::Taiwan);

    experiment.section("hourly intensity, 25%-solar Taiwan grid");
    const auto solar = data::IntensitySeries::solarDay(taiwan, 0.25);
    util::Table hours({"Hour", "g CO2/kWh"});
    for (std::size_t h = 0; h < solar.size(); h += 3)
        hours.addRow(util::formatFixed(static_cast<double>(h), 0) +
                         ":00",
                     {solar.at(h).value()});
    std::cout << hours.render();

    experiment.section("daily OPCF: uniform vs carbon-aware schedule");
    util::Table table({"Profile", "Uniform (g)", "Carbon-aware (g)",
                       "deferrable saving"});
    util::CsvWriter csv({"profile", "uniform_g", "aware_g", "saving"});
    const auto add_profile = [&](const std::string &name,
                                 const data::IntensitySeries &series) {
        const auto uniform = core::schedule(
            load, series, core::policyByName("uniform"));
        const auto aware = core::schedule(
            load, series, core::policyByName("greedy"));
        const double aware_g =
            util::asGrams(aware.deferrable_footprint);
        const double saving =
            aware_g <= 0.0
                ? 1.0
                : util::asGrams(uniform.deferrable_footprint) / aware_g;
        table.addRow(name, {util::asGrams(uniform.total()),
                            util::asGrams(aware.total()), saving});
        csv.addRow(name, {util::asGrams(uniform.total()),
                          util::asGrams(aware.total()), saving});
        return saving;
    };

    add_profile("flat (static model)",
                data::IntensitySeries::flat(taiwan));
    const double s10 = add_profile(
        "solar 10%", data::IntensitySeries::solarDay(taiwan, 0.10));
    const double s25 = add_profile(
        "solar 25%", data::IntensitySeries::solarDay(taiwan, 0.25));
    const double s40 = add_profile(
        "solar 40%", data::IntensitySeries::solarDay(taiwan, 0.40));
    add_profile("wind 30%",
                data::IntensitySeries::windDay(taiwan, 0.30));
    std::cout << table.render();

    experiment.claim("saving grows with renewable share", "monotone",
                     (s10 < s25 && s25 < s40) ? "monotone"
                                              : "non-monotone");
    experiment.claim("deferrable saving at 25% solar", ">2x",
                     util::formatSig(s25, 3) + "x");
    experiment.note("time-shifting is a zero-hardware Reduce lever: "
                    "the same joules, scheduled into green hours, "
                    "emit a fraction of the carbon");

    if (options.csv)
        std::cout << csv.toString();
    return 0;
}

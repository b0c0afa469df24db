/**
 * @file
 * Extension study: tornado sensitivity of the Eq. 5 carbon-per-area
 * estimate over the Table 1 parameter ranges -- which fab inputs
 * dominate the uncertainty in embodied-carbon estimates.
 */

#include <iostream>

#include "core/embodied.h"
#include "dse/montecarlo.h"
#include "dse/sensitivity.h"
#include "report/experiment.h"
#include "util/chart.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace act;
    const auto options = report::parseOptions(argc, argv);
    report::Experiment experiment(
        "Extension: CPA sensitivity",
        "tornado analysis of Eq. 5 over Table 1 ranges");

    const auto &fab_db = data::FabDatabase::instance();
    util::CsvWriter csv({"node", "parameter", "low", "high"});

    // All five Eq. 5 terms are themselves the uncertain inputs here,
    // so both studies evaluate the raw formula over the sampled terms
    // (CI_fab, EPA, GPA, MPA, yield).
    const auto cpa = [](const std::vector<double> &v) {
        return (v[0] * v[1] + v[2] + v[3]) / v[4];
    };

    for (double nm : {7.0, 28.0}) {
        experiment.section("CPA at " + util::formatFixed(nm, 0) +
                           " nm (g CO2/cm2)");
        const double epa = fab_db.epa(nm).value();
        const double gpa95 = fab_db.gpa(nm, 0.95).value();
        const double gpa99 = fab_db.gpa(nm, 0.99).value();
        const std::vector<dse::ParameterRange> parameters = {
            // Fab energy: solar fab ... Taiwan grid (Fig. 6 band).
            {"CI_fab", data::defaultFabIntensity().value(), 41.0,
             583.0},
            // Device characterization uncertainty on EPA (+/-20%).
            {"EPA", epa, epa * 0.8, epa * 1.2},
            // Abatement band: 99% ... 95% (Table 7 columns).
            {"GPA", (gpa95 + gpa99) / 2.0, gpa99, gpa95},
            // LCA-derived raw materials (+/-20%).
            {"MPA", 500.0, 400.0, 600.0},
            // Yield from a struggling ramp to mature.
            {"yield", 0.875, 0.6, 0.95},
        };
        const auto entries = dse::tornado(parameters, cpa);

        std::vector<util::BarEntry> bars;
        util::Table table({"Parameter", "CPA @ low", "CPA @ high",
                           "swing"});
        for (const auto &entry : entries) {
            table.addRow(entry.name,
                         {entry.output_low, entry.output_high,
                          entry.swing()});
            bars.push_back({entry.name, entry.swing(), ""});
            csv.addRow({util::formatFixed(nm, 0), entry.name,
                        util::formatSig(entry.output_low, 5),
                        util::formatSig(entry.output_high, 5)});
        }
        std::cout << table.render();
        std::cout << util::renderBarChart("swing (g CO2/cm2)", bars);

        if (nm == 7.0) {
            experiment.claim(
                "dominant CPA uncertainty at 7 nm",
                "fab energy source (Fig. 6 band)", entries[0].name);
            experiment.claim("yield outranks raw materials", "yes",
                             entries[1].name == "yield" ||
                                     entries[0].name == "yield"
                                 ? "yes"
                                 : "no");
        }
    }
    experiment.section("Monte Carlo: CPA(7nm) output distribution");
    {
        const double epa7 = fab_db.epa(7.0).value();
        const std::vector<dse::UncertainParameter> uncertain = {
            {"CI_fab", dse::Distribution::Triangular,
             data::defaultFabIntensity().value(), 41.0, 583.0},
            {"EPA", dse::Distribution::Triangular, epa7, epa7 * 0.8,
             epa7 * 1.2},
            {"GPA", dse::Distribution::Uniform,
             fab_db.gpa(7.0).value(), fab_db.gpa(7.0, 0.99).value(),
             fab_db.gpa(7.0, 0.95).value()},
            {"MPA", dse::Distribution::Uniform, 500.0, 400.0, 600.0},
            {"yield", dse::Distribution::Triangular, 0.875, 0.6, 0.95},
        };
        const auto mc = dse::monteCarlo(uncertain, cpa);
        util::Table stats({"Statistic", "CPA (g CO2/cm2)"});
        stats.addRow("mean", {mc.mean});
        stats.addRow("stddev", {mc.stddev});
        stats.addRow("p5", {mc.p5});
        stats.addRow("median", {mc.p50});
        stats.addRow("p95", {mc.p95});
        std::cout << stats.render();
        const core::FabParams fab;
        experiment.claim(
            "deterministic CPA(7nm) inside the 90% band",
            "yes",
            core::carbonPerArea(fab, 7.0).value() > mc.p5 &&
                    core::carbonPerArea(fab, 7.0).value() < mc.p95
                ? "yes"
                : "no");
    }

    experiment.note("decarbonizing fab energy is the single largest "
                    "lever on embodied estimates; publishing measured "
                    "yield and EPA would cut the remaining uncertainty "
                    "-- ACT's call to action to industry");

    if (options.csv)
        std::cout << csv.toString();
    return 0;
}

/**
 * @file
 * Extension study (Reuse tenet, Fig. 1 "chiplet design"): when does
 * partitioning a large die into chiplets lower embodied carbon? Sweeps
 * die size, defect density, and yield model; also serves as the
 * computed-yield ablation of Table 1's scalar Y parameter.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "pkg/package.h"
#include "report/experiment.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace act;

/** N = 1..8 equal dies cut from one 7 nm logic die: monolithic at
 *  N = 1, else on an organic substrate with unit bond yield. */
std::vector<pkg::PackageResult>
partitionSweep(double mm2, const core::DefectParams &defects)
{
    std::vector<pkg::PackageResult> sweep;
    for (int n = 1; n <= 8; ++n) {
        pkg::PackageSpec spec;
        spec.style = n == 1 ? pkg::PackagingStyle::Monolithic
                            : pkg::PackagingStyle::OrganicSubstrate;
        spec.chiplets.push_back(pkg::splitLogicDie(
            util::squareMillimeters(mm2), n, 7.0, defects, 0.10));
        spec.substrate_area_factor = 0.10;
        spec.substrate_node_nm = 28.0;
        spec.bond_yield = 1.0;
        spec.assembly_overhead_fraction = 0.5;
        sweep.push_back(pkg::evaluatePackage(spec, core::FabParams{}));
    }
    return sweep;
}

/** The carbon-minimal result (first on ties). */
const pkg::PackageResult &
optimal(const std::vector<pkg::PackageResult> &sweep)
{
    return *std::min_element(sweep.begin(), sweep.end(),
                             [](const auto &a, const auto &b) {
                                 return a.total < b.total;
                             });
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = report::parseOptions(argc, argv);
    report::Experiment experiment(
        "Extension: chiplets",
        "monolithic vs chiplet embodied carbon at 7 nm");

    core::DefectParams defects;
    defects.defect_density_per_cm2 = 0.15;

    experiment.section("embodied carbon vs partitioning (kg CO2)");
    util::Table table({"Die (mm2)", "N=1", "N=2", "N=4", "N=8",
                       "optimal N"});
    util::CsvWriter csv({"die_mm2", "n", "total_g", "yield"});
    for (double mm2 : {100.0, 200.0, 400.0, 600.0, 800.0}) {
        const auto sweep = partitionSweep(mm2, defects);
        table.addRow(util::formatFixed(mm2, 0),
                     {util::asKilograms(sweep[0].total),
                      util::asKilograms(sweep[1].total),
                      util::asKilograms(sweep[3].total),
                      util::asKilograms(sweep[7].total),
                      static_cast<double>(optimal(sweep).die_count)});
        for (const auto &point : sweep) {
            csv.addRow(util::formatFixed(mm2, 0),
                       {static_cast<double>(point.die_count),
                        util::asGrams(point.total),
                        point.min_die_yield});
        }
    }
    std::cout << table.render();

    experiment.section("sensitivity to defect density (600 mm2 die)");
    util::Table density({"D0 (/cm2)", "optimal N", "saving vs "
                                                   "monolithic"});
    for (double d0 : {0.05, 0.10, 0.15, 0.25, 0.40}) {
        core::DefectParams d = defects;
        d.defect_density_per_cm2 = d0;
        const auto sweep = partitionSweep(600.0, d);
        const pkg::PackageResult &best = optimal(sweep);
        density.addRow(util::formatSig(d0, 2),
                       {static_cast<double>(best.die_count),
                        util::asGrams(sweep[0].total) /
                            util::asGrams(best.total)});
    }
    std::cout << density.render();

    const auto big = partitionSweep(800.0, defects);
    const auto small = partitionSweep(100.0, defects);
    experiment.claim(
        "small dies stay monolithic", "N = 1",
        "N = " + std::to_string(optimal(small).die_count));
    experiment.claim(
        "800 mm2 die benefits from chiplets", "> 1.5x saving",
        util::formatSig(util::asGrams(big[0].total) /
                            util::asGrams(optimal(big).total),
                        3) + "x");
    experiment.note("yield recovered from smaller dies must outweigh "
                    "interface beachfront, interposer silicon, and "
                    "assembly carbon -- all three are modeled");

    if (options.csv)
        std::cout << csv.toString();
    return 0;
}

/**
 * @file
 * Config-driven scenario exploration: load the fab conditions from a
 * JSON "fab" section (the one sweep plans carry), evaluate a device's
 * embodied footprint under them, and run the yield / abatement /
 * fab-CI sensitivity sweeps called out in DESIGN.md.
 *
 * Usage:
 *   ./scenario_explorer [fab.json] [device name]
 * where fab.json looks like
 *   {"ci_fab_g_per_kwh": 447.5, "abatement": 0.97, "yield": 0.875,
 *    "lookup": "interpolate"}
 * With no arguments it uses the paper defaults for the iPhone 11.
 */

#include <iostream>

#include "core/embodied.h"
#include "core/model_config.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace act;

    core::Scenario scenario;
    if (argc > 1) {
        scenario.fab = config::loadJsonAs(argv[1], "fab config",
                                          core::fabParamsFromJson);
        std::cout << "loaded fab config from " << argv[1] << "\n";
    } else {
        std::cout << "using the default fab config (pass a fab.json "
                     "to change it)\n";
    }
    const std::string device_name = argc > 2 ? argv[2] : "iPhone 11";
    const auto device =
        data::DeviceDatabase::instance().byNameOrDie(device_name);

    std::cout << "scenario: CI_fab="
              << util::formatSig(scenario.fab.ci_fab.value(), 4)
              << " g/kWh, abatement="
              << util::formatSig(scenario.fab.abatement * 100.0, 3)
              << "%, yield="
              << util::formatSig(scenario.fab.yield, 3) << "\n\n";

    const core::EmbodiedModel model(scenario.fab);
    const auto footprint = model.evaluate(device);
    util::Table components({"IC", "kg CO2"});
    for (const auto &component : footprint.components)
        components.addRow(component.name,
                          {util::asKilograms(component.embodied)});
    components.addSeparator();
    components.addRow("packaging",
                      {util::asKilograms(footprint.packaging)});
    components.addRow("TOTAL", {util::asKilograms(footprint.total())});
    std::cout << device.name << " embodied footprint:\n"
              << components.render() << "\n";

    // --- Sensitivity sweeps ------------------------------------------
    const auto total_at = [&](core::FabParams fab) {
        return util::asKilograms(
            core::EmbodiedModel(fab).evaluate(device).total());
    };

    util::Table yields({"Yield", "Total (kg)", "vs baseline"});
    const double baseline = util::asKilograms(footprint.total());
    for (double yield : {0.5, 0.7, 0.875, 0.95, 1.0}) {
        core::FabParams fab = scenario.fab;
        fab.yield = yield;
        const double total = total_at(fab);
        yields.addRow(util::formatSig(yield, 3),
                      {total, total / baseline});
    }
    std::cout << "yield sensitivity:\n" << yields.render() << "\n";

    util::Table abatement({"Gas abatement", "Total (kg)"});
    for (double a : {0.90, 0.95, 0.97, 0.99}) {
        core::FabParams fab = scenario.fab;
        fab.abatement = a;
        abatement.addRow(util::formatFixed(a * 100.0, 0) + "%",
                         {total_at(fab)});
    }
    std::cout << "abatement sensitivity:\n" << abatement.render() << "\n";

    util::Table ci({"Fab energy", "Total (kg)"});
    for (data::EnergySource source :
         {data::EnergySource::Coal, data::EnergySource::Gas,
          data::EnergySource::Solar, data::EnergySource::Wind}) {
        ci.addRow(std::string(data::sourceName(source)),
                  {total_at(core::FabParams::withIntensity(
                      data::sourceIntensity(source)))});
    }
    std::cout << "fab energy-source sensitivity:\n" << ci.render();
    return 0;
}

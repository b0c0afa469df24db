#include "mobile/reconfigurable.h"

#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace act::mobile {

using util::Duration;
using util::Energy;
using util::milliseconds;
using util::squareMillimeters;

namespace {

constexpr std::array<SmivApp, kNumSmivApps> kApps = {
    SmivApp::Fir, SmivApp::Aes, SmivApp::Ai};

/** A53-class CPU baselines per operation. */
constexpr std::array<double, kNumSmivApps> kCpuLatencyMs = {2.0, 4.0, 30.0};
constexpr double kCpuPowerWatts = 1.5;

/**
 * Substrate profiles. Areas give the paper's 1.3x (ASIC) and 1.8x
 * (FPGA) embodied overheads over the CPU-only configuration; ratios
 * follow Section 6.2 (AI energy: ASIC 44x better than CPU, FPGA 5x
 * worse than ASIC => 8.8x better than CPU).
 */
const std::array<SubstrateProfile, 3> kSubstrates = {{
    {"CPU", squareMillimeters(14.0), 16.0, {1.0, 1.0, 1.0},
     {1.0, 1.0, 1.0}},
    {"Accel", squareMillimeters(18.2), 16.0, {1.0, 1.0, 26.0},
     {1.0, 1.0, 1.0 / 44.0}},
    {"FPGA", squareMillimeters(25.2), 16.0, {50.0, 80.0, 24.0},
     {1.0 / 25.0, 1.0 / 40.0, 1.0 / 8.8}},
}};

} // namespace

std::span<const SubstrateProfile>
smivSubstrates()
{
    return kSubstrates;
}

Duration
cpuAppLatency(SmivApp app)
{
    return milliseconds(kCpuLatencyMs[static_cast<std::size_t>(app)]);
}

Energy
cpuAppEnergy(SmivApp app)
{
    return util::watts(kCpuPowerWatts) * cpuAppLatency(app);
}

std::vector<SubstrateResult>
evaluateSubstrates(const core::FabParams &fab)
{
    std::vector<SubstrateResult> results;
    results.reserve(kSubstrates.size());
    for (const auto &substrate : kSubstrates) {
        SubstrateResult result;
        result.name = substrate.name;
        for (std::size_t i = 0; i < kNumSmivApps; ++i) {
            result.latency[i] =
                cpuAppLatency(kApps[i]) / substrate.speedup[i];
            result.energy[i] =
                cpuAppEnergy(kApps[i]) * substrate.energy_ratio[i];
        }
        result.geomean_speedup = util::geomean(
            std::span<const double>(substrate.speedup));
        result.embodied =
            core::logicEmbodied(substrate.soc_area, substrate.node_nm,
                                fab);
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<core::DesignPoint>
reconfigurableDesignSpace(const core::FabParams &fab)
{
    std::vector<core::DesignPoint> points;
    const auto substrates = smivSubstrates();
    std::size_t index = 0;
    for (const auto &result : evaluateSubstrates(fab)) {
        std::array<double, kNumSmivApps> delays{};
        std::array<double, kNumSmivApps> energies{};
        for (std::size_t i = 0; i < kNumSmivApps; ++i) {
            delays[i] = util::asSeconds(result.latency[i]);
            energies[i] = util::asKilowattHours(result.energy[i]);
        }
        core::DesignPoint point;
        point.name = result.name;
        point.embodied = result.embodied;
        point.delay = util::seconds(
            util::geomean(std::span<const double>(delays)));
        point.area = substrates[index++].soc_area;
        point.energy = util::kilowattHours(
            util::geomean(std::span<const double>(energies)));
        points.push_back(std::move(point));
    }
    return points;
}

} // namespace act::mobile

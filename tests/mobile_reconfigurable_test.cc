/** @file Integration tests for the Fig. 11 reconfigurable-HW study. */

#include <gtest/gtest.h>

#include "dse/scoreboard.h"
#include "mobile/reconfigurable.h"

namespace act::mobile {
namespace {

const core::FabParams kFab;

TEST(Figure11, Substrates)
{
    ASSERT_EQ(smivSubstrates().size(), 3u);
    EXPECT_EQ(smivSubstrates()[0].name, "CPU");
    EXPECT_EQ(smivSubstrates()[1].name, "Accel");
    EXPECT_EQ(smivSubstrates()[2].name, "FPGA");
}

TEST(Figure11, PerformanceRatios)
{
    // ASIC: 26x AI speedup; FPGA: 50x/80x/24x with ~45x geomean.
    const auto results = evaluateSubstrates(kFab);
    const std::size_t ai = static_cast<std::size_t>(SmivApp::Ai);
    EXPECT_NEAR(util::asSeconds(results[0].latency[ai]) /
                    util::asSeconds(results[1].latency[ai]),
                26.0, 1e-6);
    const std::size_t fir = static_cast<std::size_t>(SmivApp::Fir);
    const std::size_t aes = static_cast<std::size_t>(SmivApp::Aes);
    EXPECT_NEAR(util::asSeconds(results[0].latency[fir]) /
                    util::asSeconds(results[2].latency[fir]),
                50.0, 1e-6);
    EXPECT_NEAR(util::asSeconds(results[0].latency[aes]) /
                    util::asSeconds(results[2].latency[aes]),
                80.0, 1e-6);
    EXPECT_NEAR(results[2].geomean_speedup, 45.0, 1.5);
    EXPECT_DOUBLE_EQ(results[0].geomean_speedup, 1.0);
}

TEST(Figure11, AiEnergyRatios)
{
    // ASIC: 44x lower AI energy than CPU and 5x lower than FPGA.
    const auto results = evaluateSubstrates(kFab);
    const std::size_t ai = static_cast<std::size_t>(SmivApp::Ai);
    EXPECT_NEAR(util::asJoules(results[0].energy[ai]) /
                    util::asJoules(results[1].energy[ai]),
                44.0, 1e-6);
    EXPECT_NEAR(util::asJoules(results[2].energy[ai]) /
                    util::asJoules(results[1].energy[ai]),
                5.0, 0.01);
}

TEST(Figure11, EmbodiedRatios)
{
    // CPU incurs 1.3x and 1.8x lower embodied footprint than ASIC and
    // FPGA configurations.
    const auto results = evaluateSubstrates(kFab);
    EXPECT_NEAR(util::asGrams(results[1].embodied) /
                    util::asGrams(results[0].embodied),
                1.3, 0.01);
    EXPECT_NEAR(util::asGrams(results[2].embodied) /
                    util::asGrams(results[0].embodied),
                1.8, 0.01);
}

TEST(Figure11, FpgaWinsAllCarbonMetrics)
{
    // "In fact, across CDP, CEP, CE2P, C2EP, FPGA outperforms CPU and
    // ASIC-based designs."
    const dse::Scoreboard scoreboard(reconfigurableDesignSpace(kFab));
    for (core::Metric metric : core::carbonMetrics())
        EXPECT_EQ(scoreboard.winner(metric), "FPGA")
            << core::metricName(metric);
}

TEST(Figure11, AsicFallsBackToHostForNonAiApps)
{
    const auto results = evaluateSubstrates(kFab);
    for (SmivApp app : {SmivApp::Fir, SmivApp::Aes}) {
        const std::size_t i = static_cast<std::size_t>(app);
        EXPECT_DOUBLE_EQ(util::asSeconds(results[1].latency[i]),
                         util::asSeconds(results[0].latency[i]));
        EXPECT_DOUBLE_EQ(util::asJoules(results[1].energy[i]),
                         util::asJoules(results[0].energy[i]));
    }
}

TEST(Figure11, CpuBaselinesAreConsistent)
{
    for (SmivApp app : {SmivApp::Fir, SmivApp::Aes, SmivApp::Ai}) {
        EXPECT_NEAR(util::asJoules(cpuAppEnergy(app)),
                    1.5 * util::asSeconds(cpuAppLatency(app)), 1e-12);
    }
}

} // namespace
} // namespace act::mobile

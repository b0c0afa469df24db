/**
 * @file
 * Tests for the NVDLA-class NPU model and the Section 7 studies
 * (Figs. 12 and 13).
 */

#include <gtest/gtest.h>

#include "accel/design_space.h"
#include "dse/scoreboard.h"

namespace act::accel {
namespace {

const core::FabParams kFab;

TEST(Network, LayerMacArithmetic)
{
    const ConvLayer layer{"l", 28, 28, 96, 48, 3};
    EXPECT_EQ(layer.macs(),
              static_cast<std::int64_t>(28) * 28 * 96 * 48 * 9);
}

TEST(Network, ReferenceBackboneShape)
{
    const Network &network = referenceVisionNetwork();
    EXPECT_GT(network.layers.size(), 30u);
    // ~4-6 GMAC per frame, a realistic vision workload.
    EXPECT_GT(network.totalMacs(), 3'000'000'000LL);
    EXPECT_LT(network.totalMacs(), 7'000'000'000LL);
    // The first layer ingests RGB.
    EXPECT_EQ(network.layers.front().in_channels, 3);
}

TEST(Network, WideBackboneMapsWell)
{
    // The ablation network keeps near-ideal mapping utilization on
    // wide arrays, unlike the dense reference backbone. (At 2048 MACs
    // both become DRAM-bandwidth bound, so compare at 1024 where the
    // mapping effect dominates.)
    const NpuModel model;
    const double wide_util =
        model.evaluate(wideVisionNetwork(), {1024, 16.0}).utilization;
    const double dense_util =
        model.evaluate(referenceVisionNetwork(), {1024, 16.0})
            .utilization;
    EXPECT_GT(wide_util, 0.80);
    EXPECT_GT(wide_util, dense_util + 0.1);
}

TEST(Network, SweepOverloadsAgree)
{
    const NpuModel model;
    const core::FabParams fab;
    const auto a = sweepDesignSpace(model, 16.0, fab);
    const auto b =
        sweepDesignSpace(model, referenceVisionNetwork(), 16.0, fab);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].evaluation.elapsed_cycles,
                  b[i].evaluation.elapsed_cycles);
    }
}

TEST(NpuModel, AtomicsCoverTheSweep)
{
    for (int macs : macSweep()) {
        const Atomics atomics = atomicsFor(macs);
        EXPECT_EQ(atomics.input_channels * atomics.output_channels,
                  macs);
    }
    EXPECT_EXIT(atomicsFor(100), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(atomicsFor(4096), ::testing::ExitedWithCode(1), "");
}

TEST(NpuModel, AreaGrowsWithMacsAndOlderNodes)
{
    const NpuModel model;
    double prev = 0.0;
    for (int macs : macSweep()) {
        const double area = util::asSquareMillimeters(
            model.area({macs, 16.0}));
        EXPECT_GT(area, prev);
        prev = area;
        EXPECT_GT(util::asSquareMillimeters(model.area({macs, 28.0})),
                  area);
    }
}

TEST(NpuModel, ClockImprovesAtNewerNodes)
{
    const NpuModel model;
    EXPECT_GT(model.clockHz(16.0), model.clockHz(28.0));
    EXPECT_DOUBLE_EQ(model.clockHz(16.0), 1.0e9);
}

TEST(NpuModel, LayerTimingComputeAndMemoryBound)
{
    const NpuModel model;
    // A compute-heavy layer is compute bound on a small array.
    const ConvLayer compute_heavy{"c", 56, 56, 96, 96, 3};
    const LayerTiming small =
        model.evaluateLayer(compute_heavy, {64, 16.0});
    EXPECT_EQ(small.elapsed_cycles, small.compute_cycles);
    EXPECT_GT(small.compute_cycles, small.memory_cycles);
    // A weight-heavy low-spatial layer is memory bound on a big array.
    const ConvLayer weight_heavy{"w", 7, 7, 512, 512, 3};
    const LayerTiming big =
        model.evaluateLayer(weight_heavy, {2048, 16.0});
    EXPECT_EQ(big.elapsed_cycles, big.memory_cycles);
    EXPECT_GT(big.memory_cycles, big.compute_cycles);
}

TEST(NpuModel, UtilizationDegradesOnWideArrays)
{
    const NpuModel model;
    const Network &network = referenceVisionNetwork();
    const double u256 = model.evaluate(network, {256, 16.0}).utilization;
    const double u1024 =
        model.evaluate(network, {1024, 16.0}).utilization;
    const double u2048 =
        model.evaluate(network, {2048, 16.0}).utilization;
    EXPECT_GT(u256, 0.95);
    EXPECT_LT(u1024, 0.80);
    EXPECT_LT(u2048, u1024);
}

TEST(Figure12, ThroughputMonotonicallyIncreases)
{
    const NpuModel model;
    const auto entries = sweepDesignSpace(model, 16.0, kFab);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        EXPECT_GT(entries[i].evaluation.frames_per_second,
                  entries[i - 1].evaluation.frames_per_second);
    }
}

TEST(Figure12, PaperMetricOptima)
{
    // "the optimal configuration for CDP, CE2P, CEP, C2EP are 1024,
    // 512, 256, 128 MACs, respectively" while performance and EDP
    // favor the most parallel design (2048).
    const NpuModel model;
    const auto entries = sweepDesignSpace(model, 16.0, kFab);
    std::vector<core::DesignPoint> points;
    for (const auto &entry : entries)
        points.push_back(entry.design_point);
    const dse::Scoreboard scoreboard(points);
    EXPECT_EQ(scoreboard.winner(core::Metric::EDP), "2048 MACs");
    EXPECT_EQ(scoreboard.winner(core::Metric::CDP), "1024 MACs");
    EXPECT_EQ(scoreboard.winner(core::Metric::CE2P), "512 MACs");
    EXPECT_EQ(scoreboard.winner(core::Metric::CEP), "256 MACs");
    EXPECT_EQ(scoreboard.winner(core::Metric::C2EP), "128 MACs");
}

TEST(Figure13, QosStudyMatchesPaper)
{
    // 30 FPS QoS: the carbon-minimal design is 256 MACs; the
    // performance and energy optima incur ~3.3x and ~1.4x higher
    // embodied footprints.
    const NpuModel model;
    const QosStudy study = qosStudy(model, 16.0, kFab);
    ASSERT_TRUE(study.carbon_optimal.has_value());
    EXPECT_EQ(study.carbon_optimal->evaluation.config.mac_count, 256);
    EXPECT_EQ(study.performance_optimal.evaluation.config.mac_count,
              2048);
    EXPECT_EQ(study.energy_optimal.evaluation.config.mac_count, 512);
    EXPECT_NEAR(study.performanceOverhead(), 3.3, 0.1);
    EXPECT_NEAR(study.energyOverhead(), 1.4, 0.1);
    // Over-provisioning: both optima far exceed the QoS target.
    EXPECT_GT(study.performance_optimal.evaluation.frames_per_second,
              5.0 * study.qos_fps);
    EXPECT_GT(study.energy_optimal.evaluation.frames_per_second,
              2.5 * study.qos_fps);
}

TEST(Figure13, InfeasibleQosHasNoCarbonOptimum)
{
    const NpuModel model;
    const QosStudy study = qosStudy(model, 16.0, kFab, 10'000.0);
    EXPECT_FALSE(study.carbon_optimal.has_value());
    EXPECT_EXIT(study.performanceOverhead(),
                ::testing::ExitedWithCode(1), "");
}

TEST(Figure13, JevonsParadoxUnderAreaBudgets)
{
    // Right panel: under 1 and 2 mm2 budgets, moving 28 nm -> 16 nm
    // *increases* the embodied footprint (more MACs are packed and the
    // newer node is dirtier per area) -- Jevons paradox.
    const NpuModel model;
    for (double budget : {1.0, 2.0}) {
        const BudgetEntry at16 = budgetStudy(model, 16.0, budget, kFab);
        const BudgetEntry at28 = budgetStudy(model, 28.0, budget, kFab);
        ASSERT_TRUE(at16.best.has_value());
        ASSERT_TRUE(at28.best.has_value());
        // The newer node packs at least as many MACs...
        EXPECT_GE(at16.best->evaluation.config.mac_count,
                  at28.best->evaluation.config.mac_count);
        // ...and ends up with a higher embodied footprint.
        const double ratio = util::asGrams(at16.best->embodied) /
                             util::asGrams(at28.best->embodied);
        EXPECT_GT(ratio, 1.1) << budget;
        EXPECT_LT(ratio, 1.6) << budget;
    }
}

TEST(Figure13, TinyBudgetIsInfeasible)
{
    const NpuModel model;
    const BudgetEntry entry = budgetStudy(model, 16.0, 0.1, kFab);
    EXPECT_FALSE(entry.best.has_value());
}

/** Property: energy and latency are positive and finite at all nodes. */
class NpuNodes : public ::testing::TestWithParam<double> {};

TEST_P(NpuNodes, EvaluationsAreWellFormed)
{
    const NpuModel model;
    const Network &network = referenceVisionNetwork();
    for (int macs : macSweep()) {
        const NpuEvaluation eval =
            model.evaluate(network, {macs, GetParam()});
        EXPECT_GT(eval.frames_per_second, 0.0);
        EXPECT_GT(util::asJoules(eval.energy_per_frame), 0.0);
        EXPECT_GT(eval.utilization, 0.0);
        EXPECT_LE(eval.utilization, 1.0);
        EXPECT_EQ(eval.total_macs, network.totalMacs());
    }
}

INSTANTIATE_TEST_SUITE_P(Nodes, NpuNodes,
                         ::testing::Values(7.0, 10.0, 16.0, 22.0, 28.0));

} // namespace
} // namespace act::accel

/**
 * @file
 * Tests for the SSD reliability substrate: analytical write
 * amplification, the trace-driven FTL simulator that validates it, and
 * the Fig. 15 over-provisioning study.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "ssd/ftl_sim.h"
#include "ssd/lifetime.h"
#include "ssd/wa_model.h"

namespace act::ssd {
namespace {

TEST(WaModel, KnownValues)
{
    EXPECT_NEAR(analyticalWriteAmplification(0.04), 13.0, 1e-9);
    EXPECT_NEAR(analyticalWriteAmplification(0.16), 3.625, 1e-9);
    EXPECT_NEAR(analyticalWriteAmplification(0.34), 1.9706, 1e-3);
    // Enormous spare area drives WA to its floor of 1.
    EXPECT_DOUBLE_EQ(analyticalWriteAmplification(10.0), 1.0);
}

TEST(WaModel, MonotonicallyDecreasingInOverProvision)
{
    double prev = analyticalWriteAmplification(0.02);
    for (double op = 0.04; op <= 0.6; op += 0.02) {
        const double wa = analyticalWriteAmplification(op);
        EXPECT_LT(wa, prev);
        EXPECT_GE(wa, 1.0);
        prev = wa;
    }
}

TEST(WaModel, NonPositiveFactorIsFatal)
{
    EXPECT_EXIT(analyticalWriteAmplification(0.0),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(analyticalWriteAmplification(-0.1),
                ::testing::ExitedWithCode(1), "");
}

TEST(FtlSim, ConservesLogicalSpace)
{
    FtlConfig config;
    config.num_blocks = 128;
    config.pages_per_block = 32;
    config.over_provision = 0.25;
    config.user_writes = 100'000;
    FtlSimulator sim(config);
    // logical * (1 + op) == physical.
    EXPECT_EQ(sim.logicalPageCount(),
              static_cast<std::uint64_t>(128 * 32 / 1.25));
    const FtlStats stats = sim.run();
    EXPECT_EQ(stats.user_pages_written, config.user_writes);
    EXPECT_GE(stats.physical_pages_written, stats.user_pages_written);
    EXPECT_GT(stats.gc_invocations, 0u);
    EXPECT_GT(stats.erases, 0u);
}

TEST(FtlSim, DeterministicForFixedSeed)
{
    FtlConfig config;
    config.num_blocks = 64;
    config.pages_per_block = 16;
    config.user_writes = 50'000;
    const FtlStats a = FtlSimulator(config).run();
    const FtlStats b = FtlSimulator(config).run();
    EXPECT_EQ(a.physical_pages_written, b.physical_pages_written);
    EXPECT_EQ(a.erases, b.erases);
}

TEST(FtlSim, BadConfigsAreFatal)
{
    FtlConfig config;
    config.over_provision = 0.0;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1), "");
    config.over_provision = 1.2;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1), "");
    config = FtlConfig{};
    config.num_blocks = 4;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1), "");
}

/**
 * The headline validation: measured WA from the trace-driven FTL
 * tracks the analytical greedy-GC model across over-provisioning
 * levels (the analytical curve is a steady-state approximation, so a
 * generous-but-bounded divergence is allowed).
 */
class FtlVsAnalytical : public ::testing::TestWithParam<double> {};

TEST_P(FtlVsAnalytical, MeasuredWaTracksModel)
{
    const double op = GetParam();
    FtlConfig config;
    config.num_blocks = 256;
    config.pages_per_block = 32;
    config.over_provision = op;
    config.user_writes = 400'000;
    const FtlStats stats = FtlSimulator(config).run();
    const double measured = stats.writeAmplification();
    const double predicted = analyticalWriteAmplification(op);
    EXPECT_GT(measured, 1.0);
    // Within 35% of the analytical approximation.
    EXPECT_NEAR(measured / predicted, 1.0, 0.35) << "op=" << op;
}

INSTANTIATE_TEST_SUITE_P(OverProvisionSweep, FtlVsAnalytical,
                         ::testing::Values(0.08, 0.16, 0.25, 0.34,
                                           0.45));

TEST(FtlSim, MoreSpareAreaLowersMeasuredWa)
{
    FtlConfig config;
    config.num_blocks = 256;
    config.pages_per_block = 32;
    config.user_writes = 300'000;

    config.over_provision = 0.08;
    const double tight = FtlSimulator(config).run().writeAmplification();
    config.over_provision = 0.40;
    const double roomy = FtlSimulator(config).run().writeAmplification();
    EXPECT_GT(tight, roomy);
}

TEST(FtlSim, SkewedWorkloadRaisesWa)
{
    // Hot/cold skew without stream separation mixes short- and
    // long-lived pages in every block, increasing relocations over a
    // uniform workload at the same over-provisioning.
    FtlConfig config;
    config.num_blocks = 256;
    config.pages_per_block = 32;
    config.over_provision = 0.16;
    config.user_writes = 300'000;

    const double uniform =
        FtlSimulator(config).run().writeAmplification();
    config.pattern = WritePattern::HotCold;
    const double skewed =
        FtlSimulator(config).run().writeAmplification();
    // Greedy GC already exploits some skew (hot blocks invalidate
    // fast); the interesting comparison is against separation below.
    EXPECT_GT(skewed, 1.0);
    EXPECT_GT(uniform, 1.0);
}

TEST(FtlSim, HotColdSeparationReducesWa)
{
    FtlConfig config;
    config.num_blocks = 256;
    config.pages_per_block = 32;
    config.over_provision = 0.16;
    config.user_writes = 300'000;
    config.pattern = WritePattern::HotCold;
    config.hot_lba_fraction = 0.1;
    config.hot_write_fraction = 0.9;

    const double mixed =
        FtlSimulator(config).run().writeAmplification();
    config.separate_hot_cold = true;
    const double separated =
        FtlSimulator(config).run().writeAmplification();
    EXPECT_LT(separated, mixed);
    // Separation is worth a solid margin under 90/10 skew.
    EXPECT_LT(separated, 0.9 * mixed);
}

TEST(FtlSim, SeparationIsHarmlessUnderUniformTraffic)
{
    FtlConfig config;
    config.num_blocks = 256;
    config.pages_per_block = 32;
    config.over_provision = 0.16;
    config.user_writes = 200'000;
    config.pattern = WritePattern::Uniform;

    const double base = FtlSimulator(config).run().writeAmplification();
    config.separate_hot_cold = true;  // no effect: stream 1 unused
    const double with_flag =
        FtlSimulator(config).run().writeAmplification();
    EXPECT_DOUBLE_EQ(base, with_flag);
}

TEST(FtlSim, StateIsConsistentAfterRuns)
{
    for (bool separated : {false, true}) {
        FtlConfig config;
        config.num_blocks = 128;
        config.pages_per_block = 16;
        config.over_provision = 0.2;
        config.user_writes = 100'000;
        config.pattern = WritePattern::HotCold;
        config.separate_hot_cold = separated;
        FtlSimulator sim(config);
        sim.run();
        EXPECT_TRUE(sim.checkConsistency()) << separated;
    }
}

/**
 * Exact statistics of Fig. 15's eight runs and of one separated
 * hot/cold run, recorded from the block-scanning greedy GC. Any change
 * to the victim sequence moves at least one of these counters.
 */
struct PinnedRun
{
    double over_provision;
    std::uint64_t physical_pages_written;
    std::uint64_t gc_invocations;
    std::uint64_t pages_relocated;
    std::uint64_t erases;
};

void
expectPinned(const FtlConfig &config, const PinnedRun &pinned)
{
    FtlSimulator sim(config);
    const FtlStats stats = sim.run();
    EXPECT_EQ(stats.user_pages_written, config.user_writes);
    EXPECT_EQ(stats.physical_pages_written,
              pinned.physical_pages_written);
    EXPECT_EQ(stats.gc_invocations, pinned.gc_invocations);
    EXPECT_EQ(stats.pages_relocated, pinned.pages_relocated);
    EXPECT_EQ(stats.erases, pinned.erases);
    EXPECT_TRUE(sim.checkConsistency());
}

TEST(FtlSim, Figure15VictimSequenceIsPinned)
{
    const PinnedRun runs[] = {
        {0.04, 1'931'439, 62'646, 1'781'439, 60'357},
        {0.08, 1'006'769, 32'597, 856'769, 31'461},
        {0.12, 709'009, 22'881, 559'009, 22'157},
        {0.16, 559'502, 18'009, 409'502, 17'485},
        {0.22, 435'763, 13'993, 285'763, 13'618},
        {0.28, 365'261, 11'687, 215'261, 11'415},
        {0.34, 320'143, 10'220, 170'143, 10'005},
        {0.40, 289'267, 9'209, 139'267, 9'039},
    };
    for (const PinnedRun &run : runs) {
        SCOPED_TRACE(run.over_provision);
        FtlConfig config;
        config.num_blocks = 192;
        config.pages_per_block = 32;
        config.over_provision = run.over_provision;
        config.user_writes = 150'000;
        expectPinned(config, run);
    }
}

TEST(FtlSim, SeparatedHotColdVictimSequenceIsPinned)
{
    FtlConfig config;
    config.num_blocks = 128;
    config.pages_per_block = 16;
    config.over_provision = 0.2;
    config.user_writes = 100'000;
    config.pattern = WritePattern::HotCold;
    config.hot_lba_fraction = 0.1;
    config.hot_write_fraction = 0.9;
    config.separate_hot_cold = true;
    expectPinned(config, {0.2, 257'007, 16'170, 157'007, 16'062});
}

/**
 * Exact statistics on a 100-block grid with non-power-of-two pages per
 * block (5, 24, 48, whose page IDs leave padding at the top of each
 * block) and with one page per block (page shift 0), under every
 * write pattern and two seeds. Recorded from the simulator that
 * addressed pages as block * pages_per_block + page and relocated one
 * page at a time.
 */
TEST(FtlSim, NonPowerOfTwoGeometriesArePinned)
{
    struct GridRun
    {
        int pages_per_block;
        int pattern;  // 0 uniform, 1 hot/cold, 2 separated hot/cold
        std::uint64_t seed;
        PinnedRun pinned;
    };
    const GridRun runs[] = {
        {1, 0, 42, {0.16, 20'000, 20'074, 0, 20'000}},
        {1, 0, 7, {0.16, 20'000, 20'074, 0, 20'000}},
        {1, 1, 42, {0.16, 20'000, 20'074, 0, 20'000}},
        {1, 1, 7, {0.16, 20'000, 20'074, 0, 20'000}},
        {1, 2, 42, {0.16, 20'000, 20'074, 0, 20'000}},
        {1, 2, 7, {0.16, 20'000, 20'074, 0, 20'000}},
        {5, 0, 42, {0.16, 51'525, 10'496, 31'525, 10'305}},
        {5, 0, 7, {0.16, 50'954, 10'372, 30'954, 10'191}},
        {5, 1, 42, {0.16, 55'930, 11'349, 35'930, 11'186}},
        {5, 1, 7, {0.16, 56'110, 11'399, 36'110, 11'222}},
        {5, 2, 42, {0.16, 49'991, 10'173, 29'991, 10'000}},
        {5, 2, 7, {0.16, 50'035, 10'170, 30'035, 10'007}},
        {24, 0, 42, {0.16, 77'675, 3'530, 57'675, 3'236}},
        {24, 0, 7, {0.16, 77'577, 3'526, 57'577, 3'232}},
        {24, 1, 42, {0.16, 81'393, 3'639, 61'393, 3'391}},
        {24, 1, 7, {0.16, 80'983, 3'622, 60'983, 3'374}},
        {24, 2, 42, {0.16, 75'039, 3'367, 55'039, 3'127}},
        {24, 2, 7, {0.16, 75'031, 3'362, 55'031, 3'125}},
        {48, 0, 42, {0.16, 83'312, 2'051, 63'312, 1'736}},
        {48, 0, 7, {0.16, 83'310, 2'051, 63'310, 1'736}},
        {48, 1, 42, {0.16, 87'249, 2'099, 67'249, 1'818}},
        {48, 1, 7, {0.16, 87'387, 2'098, 67'387, 1'821}},
        {48, 2, 42, {0.16, 81'529, 1'966, 61'529, 1'698}},
        {48, 2, 7, {0.16, 80'775, 1'941, 60'775, 1'684}},
    };
    for (const GridRun &run : runs) {
        SCOPED_TRACE(::testing::Message()
                     << run.pages_per_block << " pages, pattern "
                     << run.pattern << ", seed " << run.seed);
        FtlConfig config;
        config.num_blocks = 100;
        config.pages_per_block = run.pages_per_block;
        config.over_provision = run.pinned.over_provision;
        config.user_writes = 20'000;
        config.seed = run.seed;
        config.pattern = run.pattern == 0 ? WritePattern::Uniform
                                          : WritePattern::HotCold;
        config.separate_hot_cold = run.pattern == 2;
        expectPinned(config, run.pinned);
    }
}

TEST(FtlSim, PageIdsMustFitIn32Bits)
{
    // 2^26 blocks of 64 pages pad to 2^32 page IDs, one more than
    // fit below the unmapped sentinel. The constructor must refuse it
    // before allocating anything: the tables would need 16 GiB.
    FtlConfig config;
    config.num_blocks = 1 << 26;
    config.pages_per_block = 64;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1),
                "fatal: FTL geometry too large for 32-bit page IDs "
                "\\(num_blocks=67108864, pages_per_block=64");
    // 33 pages pad to 64, so 2^26 blocks are too large here as well.
    config.pages_per_block = 33;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1),
                "fatal: FTL geometry too large for 32-bit page IDs");
    // Far beyond the bound: an allocation would fail, not exit 1.
    config.num_blocks = 1 << 30;
    config.pages_per_block = 1 << 30;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1),
                "fatal: FTL geometry too large for 32-bit page IDs");

    // One block fewer fits; construction allocates nothing, so this
    // is cheap as long as run() is not called.
    config.num_blocks = (1 << 26) - 1;
    config.pages_per_block = 64;
    const FtlSimulator fits(config);
    EXPECT_GT(fits.logicalPageCount(), 0u);
}

TEST(FtlSim, FullyValidVictimIsFatal)
{
    // Too little spare area: GC runs out of blocks with any invalid
    // page, so collecting the victim frees nothing. This used to spin
    // forever inside allocatePage.
    FtlConfig config;
    config.num_blocks = 64;
    config.pages_per_block = 32;
    config.over_provision = 0.04;
    config.user_writes = 20'000;
    EXPECT_EXIT(FtlSimulator(config).run(), ::testing::ExitedWithCode(1),
                "fatal: .*num_blocks=64, pages_per_block=32, "
                "over_provision=0.04, gc_threshold_blocks=2");

    config.over_provision = 0.07;
    config.pattern = WritePattern::HotCold;
    config.separate_hot_cold = true;
    EXPECT_EXIT(FtlSimulator(config).run(), ::testing::ExitedWithCode(1),
                "fatal: ");
}

/** Clean exit (0) or a fatal (1); anything else is a failure. */
bool
finishedOrFatal(int status)
{
    return ::testing::ExitedWithCode(0)(status) ||
           ::testing::ExitedWithCode(1)(status);
}

TEST(FtlSim, BorderlineGeometriesFinishConsistentlyOrFail)
{
    // Around the livelock boundary every run either completes with a
    // consistent state or stops with a fatal; none hangs or aborts.
    for (int blocks : {16, 64}) {
        for (int pages : {8, 32}) {
            for (double op : {0.02, 0.05, 0.1, 0.3}) {
                for (int pattern = 0; pattern < 3; ++pattern) {
                    FtlConfig config;
                    config.num_blocks = blocks;
                    config.pages_per_block = pages;
                    config.over_provision = op;
                    config.user_writes = 20'000;
                    config.pattern = pattern == 0 ? WritePattern::Uniform
                                                  : WritePattern::HotCold;
                    config.separate_hot_cold = pattern == 2;
                    EXPECT_EXIT(
                        {
                            FtlSimulator sim(config);
                            sim.run();
                            std::cerr << (sim.checkConsistency()
                                              ? "consistent"
                                              : "inconsistent");
                            std::exit(0);
                        },
                        finishedOrFatal, "^(consistent|fatal: )")
                        << blocks << "x" << pages << " op=" << op
                        << " pattern=" << pattern;
                }
            }
        }
    }
}

TEST(FtlSim, BadHotColdParametersAreFatal)
{
    FtlConfig config;
    config.pattern = WritePattern::HotCold;
    config.hot_lba_fraction = 0.0;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1), "");
    config.hot_lba_fraction = 0.2;
    config.hot_write_fraction = 1.5;
    EXPECT_EXIT(FtlSimulator{config}, ::testing::ExitedWithCode(1), "");
}

TEST(Lifetime, MezaModelValues)
{
    // Calibrated per DESIGN.md: ~2 years at PF = 16%, ~4.3 years at
    // PF = 34% (Fig. 15 top).
    EXPECT_NEAR(util::asYears(ssdLifetime(0.16)), 2.0, 0.1);
    EXPECT_NEAR(util::asYears(ssdLifetime(0.34)), 4.3, 0.15);
    EXPECT_LT(util::asYears(ssdLifetime(0.04)), 1.0);
}

TEST(Lifetime, ScalesWithReliabilityParameters)
{
    ReliabilityParams heavy;
    heavy.dwpd = 2.6;  // twice the write pressure halves the lifetime
    EXPECT_NEAR(util::asYears(ssdLifetime(0.16, heavy)),
                util::asYears(ssdLifetime(0.16)) / 2.0, 1e-9);
    ReliabilityParams mlc;
    mlc.pec = 6000.0;  // doubling PEC doubles it
    EXPECT_NEAR(util::asYears(ssdLifetime(0.16, mlc)),
                util::asYears(ssdLifetime(0.16)) * 2.0, 1e-9);
    ReliabilityParams bad;
    bad.pec = 0.0;
    EXPECT_EXIT(ssdLifetime(0.16, bad), ::testing::ExitedWithCode(1),
                "");
}

TEST(Figure15, FirstLifeOptimalAtSixteenPercent)
{
    // One ~2-year mobile life needs PF ~ 16%.
    ProvisioningStudyParams params;
    params.service_period = util::years(2.0);
    EXPECT_NEAR(minimumPfForService(params), 0.16, 0.02);
}

TEST(Figure15, SecondLifeNeedsThirtyFourPercent)
{
    // Extending to a 4-year second life needs PF ~ 34%.
    ProvisioningStudyParams params;
    params.service_period = util::years(4.0);
    EXPECT_NEAR(minimumPfForService(params), 0.34, 0.03);
}

TEST(Figure15, SecondLifeReducesEmbodiedByNearlyTwoX)
{
    // One 34%-provisioned drive over 4 years vs two 16%-provisioned
    // drives over two 2-year lives: ~1.8x reduction.
    ProvisioningStudyParams first;
    first.service_period = util::years(2.0);
    const double pf_first = minimumPfForService(first);
    ProvisioningStudyParams second;
    second.service_period = util::years(4.0);
    const double pf_second = minimumPfForService(second);
    const double reduction =
        2.0 * (1.0 + pf_first) / (1.0 + pf_second);
    EXPECT_NEAR(reduction, 1.8, 0.1);
}

TEST(Figure15, PointFieldsAreConsistent)
{
    ProvisioningStudyParams params;
    const OverProvisionPoint at16 = evaluateOverProvision(0.16, params);
    EXPECT_NEAR(at16.write_amplification, 3.625, 1e-9);
    EXPECT_NEAR(at16.lifetime_years, 2.0, 0.1);
    // A short-lived drive (PF = 10%) needs more than one device to
    // cover the 2-year service period.
    const OverProvisionPoint at10 = evaluateOverProvision(0.10, params);
    EXPECT_GT(at10.devices, 1.0);
    EXPECT_NEAR(at10.devices,
                util::asYears(params.service_period) /
                    at10.lifetime_years,
                1e-9);
    // Embodied = devices * (1 + pf) * capacity * cps.
    EXPECT_NEAR(util::asGrams(at10.effective_embodied),
                at10.devices * 1.10 * 128.0 * 6.3, 1e-6);
}

TEST(Figure15, UncoverableServicePeriodIsFatal)
{
    ProvisioningStudyParams params;
    params.service_period = util::years(50.0);
    EXPECT_EXIT(minimumPfForService(params),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::ssd

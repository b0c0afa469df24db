/**
 * @file
 * Tests for the batched Monte Carlo path: the compiled batch kernel
 * must be *bit-identical* to the scalar closure path -- every
 * statistic, at every thread count and shard count. The scalar path
 * stays in the tree precisely to serve as this oracle.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/embodied.h"
#include "core/fab_params.h"
#include "dse/montecarlo.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/units.h"

namespace act::dse {
namespace {

class DseBatchTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setThreadCount(0);
    }
};

void
expectSameResult(const MonteCarloResult &actual,
                 const MonteCarloResult &expected)
{
    EXPECT_EQ(actual.samples, expected.samples);
    EXPECT_EQ(actual.mean, expected.mean);
    EXPECT_EQ(actual.stddev, expected.stddev);
    EXPECT_EQ(actual.p5, expected.p5);
    EXPECT_EQ(actual.p50, expected.p50);
    EXPECT_EQ(actual.p95, expected.p95);
    EXPECT_EQ(actual.min, expected.min);
    EXPECT_EQ(actual.max, expected.max);
}

/** The Table 1 fab uncertainties at a fixed node. */
std::vector<UncertainParameter>
nodeParameters()
{
    return {
        {"ci_fab", Distribution::Uniform, 365.0, 30.0, 700.0},
        {"yield", Distribution::Triangular, 0.875, 0.8, 0.95},
        {"abatement", Distribution::Uniform, 0.95, 0.9, 1.0},
    };
}

TEST_F(DseBatchTest, ScalarClosureIsThreadCountInvariant)
{
    // The closure path is the oracle the batch kernel is checked
    // against below, so it must itself be thread-count invariant.
    const std::vector<UncertainParameter> parameters =
        nodeParameters();
    const auto closure = [](const std::vector<double> &values) {
        core::FabParams fab;
        fab.ci_fab = util::gramsPerKilowattHour(values[0]);
        fab.yield = values[1];
        fab.abatement = values[2];
        return core::carbonPerArea(fab, 7.0).value();
    };

    // 10k samples = 5 chunks: enough to exercise chunk boundaries and
    // the partial-merge order at several pool widths.
    util::setThreadCount(1);
    const MonteCarloResult reference =
        monteCarlo(parameters, closure, 10'000, 42);
    for (const std::size_t threads : {2u, 7u}) {
        util::setThreadCount(threads);
        expectSameResult(monteCarlo(parameters, closure, 10'000, 42),
                         reference);
    }
}

TEST_F(DseBatchTest, ShardedDomainMatchesScalarOracle)
{
    // The cpa_montecarlo domain runs the compiled batch kernel; a
    // sharded multi-process sweep, merged, must agree bit-for-bit
    // with dse::monteCarlo over the exported scalar oracle.
    const std::string text = R"({
        "domain": "cpa_montecarlo",
        "items": 10000,
        "seed": 42,
        "config": {
            "node_nm": 7,
            "parameters": [
                {"name": "ci_fab_g_per_kwh", "distribution": "uniform",
                 "low": 30, "high": 700},
                {"name": "yield", "distribution": "triangular",
                 "low": 0.8, "baseline": 0.875, "high": 0.95},
                {"name": "abatement", "distribution": "uniform",
                 "low": 0.9, "high": 1.0}
            ]
        }
    })";
    sweep::SweepPlan plan = sweep::sweepPlanFromJson(
        config::JsonValue::parse(text));
    const sweep::Domain &domain = sweep::findDomain(plan.domain);
    domain.prepare(plan);

    util::setThreadCount(1);
    const MonteCarloResult reference = monteCarlo(
        sweep::cpaMonteCarloParameters(plan),
        sweep::cpaMonteCarloScalarModel(plan), plan.items, plan.seed);

    for (const std::size_t threads : {1u, 2u, 7u}) {
        util::setThreadCount(threads);
        for (const std::size_t shards : {1u, 3u}) {
            std::vector<sweep::ShardResult> partials;
            for (std::size_t i = 0; i < shards; ++i) {
                partials.push_back(sweep::runShardedSweep(
                    plan, {shards, i}, domain.evaluator(plan)));
            }
            const config::JsonValue merged =
                sweep::mergeShards(partials);
            expectSameResult(
                sweep::monteCarloResultFromPayloads(
                    plan.items, merged.at("results").asArray()),
                reference);
        }
    }
}

} // namespace
} // namespace act::dse

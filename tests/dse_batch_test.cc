/**
 * @file
 * Tests for the Monte Carlo samplers: dse::monteCarlo's sampled values
 * must be the distributions' formulas bit for bit, and the compiled
 * batch kernel of the sharded cpa_montecarlo domain must be
 * *bit-identical* to dse::monteCarlo over the scalar closure -- every
 * statistic, at every thread count and shard count.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dse/montecarlo.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/random.h"

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

/**
 * The reference sampler: parameter @p parameter's value at the next
 * unit draw of @p rng, written out as the distribution's formula.
 */
double
referenceSample(const UncertainParameter &parameter,
                util::Xorshift64Star &rng)
{
    const double u = rng.nextUnit();
    const double a = parameter.low;
    const double b = parameter.high;
    if (parameter.distribution == Distribution::Uniform)
        return a + (b - a) * u;
    // Triangular inverse CDF with the mode c in [a, b].
    const double c = parameter.baseline;
    if (u < (c - a) / (b - a))
        return a + std::sqrt(u * (b - a) * (c - a));
    return b - std::sqrt((1.0 - u) * (b - a) * (b - c));
}

TEST_F(DseBatchTest, SamplesMatchTheReferenceFormulaBitwise)
{
    // The model records every sampled parameter vector and returns the
    // sampled yield unchanged. Each vector must be the reference
    // formula's bits on chunk c's stream deriveSeed(seed, c), drawn
    // sample-major. 5000 samples make two full chunks and a short one.
    const std::vector<UncertainParameter> parameters =
        nodeParameters();
    constexpr std::size_t kSamples = 5000;
    constexpr std::uint64_t kSeed = 7;
    std::vector<std::vector<double>> seen;
    const MonteCarloResult result = monteCarlo(
        parameters,
        [&](const std::vector<double> &values) {
            seen.push_back(values);
            return values[1];
        },
        kSamples, kSeed);

    ASSERT_EQ(seen.size(), kSamples);
    MonteCarloPartial expected;
    std::size_t sample = 0;
    for (std::size_t c = 0; sample < kSamples; ++c) {
        util::Xorshift64Star rng(util::deriveSeed(kSeed, c));
        MonteCarloPartial chunk;
        for (std::size_t k = 0; k < kMonteCarloChunk && sample < kSamples;
             ++k, ++sample) {
            for (std::size_t i = 0; i < parameters.size(); ++i) {
                const double value = referenceSample(parameters[i], rng);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(seen[sample][i]),
                          std::bit_cast<std::uint64_t>(value))
                    << "sample " << sample << ", parameter "
                    << parameters[i].name;
            }
            const double output = seen[sample][1];
            chunk.outputs.push_back(output);
            chunk.sum += output;
            chunk.sum_squares += output * output;
        }
        expected = mergePartial(std::move(expected), std::move(chunk));
    }
    expectSameResult(result,
                     finalizeMonteCarlo(kSamples, std::move(expected)));
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

/**
 * @file
 * google-benchmark microbenchmarks for what the end-to-end harness
 * (perfbench/run.py) cannot isolate: the fleet replay pinned to one
 * SIMD dispatch level, the in-process design-space sweeps and Monte
 * Carlo driver (serial loops, so no thread-count arguments), and
 * single device and NPU evaluations. Whole-run and per-layer timings
 * come from perfbench, not from here.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "accel/design_space.h"
#include "config/json.h"
#include "core/embodied.h"
#include "dse/montecarlo.h"
#include "dse/scoreboard.h"
#include "fleet/replay.h"
#include "mobile/platform.h"
#include "util/simd.h"

namespace {

using namespace act;

void
BM_DeviceEvaluation(benchmark::State &state)
{
    const core::EmbodiedModel model;
    const auto device =
        data::DeviceDatabase::instance().byNameOrDie("iPhone 11");
    for (auto _ : state)
        benchmark::DoNotOptimize(model.evaluate(device));
}
BENCHMARK(BM_DeviceEvaluation);

/** Full Fig. 8 sweep + scoreboard. */
void
BM_MobileDesignSpace(benchmark::State &state)
{
    const core::FabParams fab;
    for (auto _ : state) {
        const auto space = mobile::mobileDesignSpace(fab);
        const dse::Scoreboard scoreboard(space);
        benchmark::DoNotOptimize(
            scoreboard.winner(core::Metric::C2EP));
    }
}
BENCHMARK(BM_MobileDesignSpace);

/** Eq. 5 Monte Carlo (Table 1 uncertainty). */
void
BM_MonteCarlo(benchmark::State &state)
{
    const std::vector<dse::UncertainParameter> parameters = {
        {"ci_fab", dse::Distribution::Triangular, 447.5, 41.0, 583.0},
        {"epa", dse::Distribution::Triangular, 1.52, 1.216, 1.824},
        {"gpa", dse::Distribution::Uniform, 275.0, 200.0, 350.0},
        {"mpa", dse::Distribution::Uniform, 500.0, 400.0, 600.0},
        {"yield", dse::Distribution::Triangular, 0.875, 0.6, 0.95},
    };
    for (auto _ : state) {
        const auto result = dse::monteCarlo(
            parameters,
            [](const std::vector<double> &v) {
                return (v[0] * v[1] + v[2] + v[3]) / v[4];
            },
            100'000);
        benchmark::DoNotOptimize(result.p95);
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_MonteCarlo)->Unit(benchmark::kMillisecond);

/** Fig. 12-class NPU design-space walk across nodes. */
void
BM_NpuDesignSpaceWalk(benchmark::State &state)
{
    const accel::NpuModel model;
    const core::FabParams fab;
    for (auto _ : state) {
        double total = 0.0;
        for (double node : {28.0, 20.0, 16.0, 10.0, 7.0, 5.0, 3.0}) {
            for (const auto &entry :
                 accel::sweepDesignSpace(model, node, fab))
                total += entry.embodied.value();
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_NpuDesignSpaceWalk);

void
BM_NpuEvaluation(benchmark::State &state)
{
    const accel::NpuModel model;
    const accel::Network &network = accel::referenceVisionNetwork();
    const int macs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(network, {macs, 16.0}));
    }
}
BENCHMARK(BM_NpuEvaluation)->Arg(64)->Arg(512)->Arg(2048);

/**
 * Trace-driven fleet replay: 10k synthetic jobs placed under four
 * deferral policies across a seasonal solar region and a flat clean
 * one (8 scenarios -- one year of hourly samples). items/s counts job
 * placements (jobs x scenarios).
 */
fleet::FleetSetup
fleetBenchSetup()
{
    const auto config = config::JsonValue::parse(R"({
        "pue": 1.3,
        "lifetime_years": [4],
        "policies": ["uniform", "greedy", "deadline", "migrate"],
        "regions": [
            {"name": "tw-solar", "profile": "solar",
             "region": "Taiwan", "share": 0.25, "days": 365,
             "seasonal_amplitude": 0.15},
            {"name": "is-flat", "profile": "flat",
             "region": "Iceland", "days": 365}
        ],
        "jobs": {"horizon_hours": 8760}
    })");
    return fleet::fleetSetupFromJson(config, 42);
}

/** The replay pinned to one dispatch level, so the scalar tier can
 *  be timed apart from the host's best level. */
void
BM_FleetReplaySimd(benchmark::State &state, util::SimdLevel level)
{
    if (!util::simdLevelAvailable(level)) {
        state.SkipWithError("SIMD level unavailable on this host");
        return;
    }
    util::setSimdLevel(level);
    constexpr std::size_t kJobs = 10'000;
    const fleet::FleetSetup setup = fleetBenchSetup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fleet::replayJobs(setup, {0, kJobs}));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kJobs * setup.scenarios.size()));
    util::setSimdLevel(util::detectedSimdLevel());
}
BENCHMARK_CAPTURE(BM_FleetReplaySimd, scalar, util::SimdLevel::Scalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetReplaySimd, avx2, util::SimdLevel::Avx2)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Tests for the compiled Eq. 5 plan (core/eval_plan.h) behind the
 * cpa_montecarlo kernel: EvalPlan::evaluateBatch() must be
 * *bit-identical* to core::carbonPerArea() over a correspondingly
 * mutated FabParams, for every fab variant, node and bound input.
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/embodied.h"
#include "core/eval_plan.h"
#include "core/fab_params.h"
#include "data/fab_db.h"
#include "util/units.h"

namespace act::core {
namespace {

std::vector<FabParams>
fabVariants()
{
    std::vector<FabParams> fabs = {
        FabParams{},
        FabParams::taiwanGrid(),
        FabParams::renewable(),
        FabParams::withIntensity(util::gramsPerKilowattHour(123.0)),
    };
    FabParams low_yield;
    low_yield.yield = 0.5;
    fabs.push_back(low_yield);
    FabParams nearest;
    nearest.lookup = data::NodeLookup::NearestAnchor;
    fabs.push_back(nearest);
    return fabs;
}

/** One sample through the batch kernel. */
double
evaluateOne(const EvalPlan &plan, const std::vector<double> &values)
{
    std::vector<const double *> columns;
    for (const double &value : values)
        columns.push_back(&value);
    double output = 0.0;
    plan.evaluateBatch(1, columns.data(), &output);
    return output;
}

TEST(EvalPlan, UnboundPlanMatchesCarbonPerAreaBitwise)
{
    // With no bound inputs the plan evaluates its compiled baseline;
    // it must equal the oracle exactly (EXPECT_EQ on doubles is bit
    // comparison for non-NaN values), across fab variants, the
    // abatement band, and on- and off-anchor nodes.
    const double nodes[] = {3.0, 4.2, 5.0,  6.5,  7.0,  8.0,
                            10.0, 12.0, 14.0, 16.0, 20.0, 28.0};
    for (FabParams fab : fabVariants()) {
        for (const double abatement : {0.90, 0.95, 0.97, 0.99, 1.0}) {
            fab.abatement = abatement;
            for (const double nm : nodes) {
                const EvalPlan plan = EvalPlan::forNode(fab, nm);
                EXPECT_EQ(evaluateOne(plan, {}),
                          carbonPerArea(fab, nm).value())
                    << nm << " nm, abatement " << abatement;
            }
        }
    }
}

TEST(EvalPlan, BoundInputsMatchMutatedFabParams)
{
    // Binding (ci_fab, yield, abatement) per sample must reproduce the
    // oracle run with a FabParams carrying those values -- the exact
    // substitution the cpa_montecarlo sweep domain performs.
    const std::vector<EvalInput> bindings = {
        EvalInput::CiFab, EvalInput::Yield, EvalInput::Abatement};
    for (const FabParams &base : fabVariants()) {
        for (const double nm : {3.0, 7.0, 14.0, 28.0}) {
            const EvalPlan plan = EvalPlan::forNode(base, nm, bindings);
            for (const double ci : {30.0, 365.0, 700.0}) {
                for (const double yield : {0.6, 0.875, 1.0}) {
                    for (const double abatement : {0.90, 0.951, 1.0}) {
                        FabParams mutated = base;
                        mutated.ci_fab =
                            util::gramsPerKilowattHour(ci);
                        mutated.yield = yield;
                        mutated.abatement = abatement;
                        EXPECT_EQ(
                            evaluateOne(plan, {ci, yield, abatement}),
                            carbonPerArea(mutated, nm).value())
                            << nm << " nm, ci " << ci << ", yield "
                            << yield << ", abatement " << abatement;
                    }
                }
            }
        }
    }
}

TEST(EvalPlan, EvaluateBatchMatchesOraclePerSample)
{
    // A ragged column of distinct samples, bound in a different order
    // than the enum's, with one FabParams field left unbound.
    const FabParams base;
    const std::vector<EvalInput> bindings = {EvalInput::Abatement,
                                             EvalInput::CiFab};
    const EvalPlan plan = EvalPlan::forNode(base, 7.0, bindings);

    constexpr std::size_t kSamples = 257; // deliberately off-power-of-2
    std::vector<double> ci(kSamples), abatement(kSamples),
        batched(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
        ci[s] = 30.0 + 2.3 * static_cast<double>(s);
        abatement[s] = 0.90 + 0.0003 * static_cast<double>(s);
    }
    const double *columns[] = {abatement.data(), ci.data()};
    plan.evaluateBatch(kSamples, columns, batched.data());
    for (std::size_t s = 0; s < kSamples; ++s) {
        FabParams mutated = base;
        mutated.ci_fab = util::gramsPerKilowattHour(ci[s]);
        mutated.abatement = abatement[s];
        EXPECT_EQ(batched[s], carbonPerArea(mutated, 7.0).value())
            << "sample " << s;
    }
}

TEST(EvalPlan, InputNamesAndBindingOrder)
{
    EXPECT_EQ(evalInputName(EvalInput::CiFab), "ci_fab");
    EXPECT_EQ(evalInputName(EvalInput::Yield), "yield");
    EXPECT_EQ(evalInputName(EvalInput::Abatement), "abatement");
    // inputs[i] feeds binding i, in the order forNode() was given.
    const std::vector<EvalInput> bindings = {EvalInput::Yield,
                                             EvalInput::CiFab};
    const EvalPlan plan = EvalPlan::forNode(FabParams{}, 7.0, bindings);
    FabParams mutated;
    mutated.yield = 0.5;
    mutated.ci_fab = util::gramsPerKilowattHour(100.0);
    EXPECT_EQ(evaluateOne(plan, {0.5, 100.0}),
              carbonPerArea(mutated, 7.0).value());
}

TEST(EvalPlan, InvalidInputsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const FabParams fab;

    // Bad per-sample values, mirroring carbonPerArea()'s checks.
    const std::vector<EvalInput> yield_only = {EvalInput::Yield};
    const EvalPlan plan = EvalPlan::forNode(fab, 7.0, yield_only);
    EXPECT_EXIT(evaluateOne(plan, {0.0}), ::testing::ExitedWithCode(1),
                "fab yield");
    const std::vector<EvalInput> abatement_only = {
        EvalInput::Abatement};
    const EvalPlan checked =
        EvalPlan::forNode(fab, 7.0, abatement_only);
    EXPECT_EXIT(evaluateOne(checked, {0.5}),
                ::testing::ExitedWithCode(1),
                "gaseous abatement fraction 0.5");

    // Out-of-range nodes and duplicate bindings.
    EXPECT_EXIT(EvalPlan::forNode(fab, 2.0),
                ::testing::ExitedWithCode(1), "");
    const std::vector<EvalInput> duplicate = {EvalInput::Yield,
                                              EvalInput::Yield};
    EXPECT_EXIT(EvalPlan::forNode(fab, 7.0, duplicate),
                ::testing::ExitedWithCode(1), "twice");
}

} // namespace
} // namespace act::core

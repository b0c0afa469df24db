#include "core/eval_plan.h"

#include <algorithm>

#include "data/fab_db.h"
#include "util/logging.h"

namespace act::core {

namespace {

void
checkYield(double yield)
{
    if (!(yield > 0.0 && yield <= 1.0))
        util::fatal("fab yield must be in (0, 1], got ", yield);
}

void
checkAbatementRange(double abatement)
{
    if (!(abatement >= 0.90 && abatement <= 1.0)) {
        util::fatal("gaseous abatement fraction ", abatement,
                    " outside the characterized range [0.90, 1.0]");
    }
}

} // namespace

std::string_view
evalInputName(EvalInput input)
{
    switch (input) {
    case EvalInput::CiFab:
        return "ci_fab";
    case EvalInput::Yield:
        return "yield";
    case EvalInput::Abatement:
        return "abatement";
    }
    return "unknown";
}

void
EvalPlan::bind(std::span<const EvalInput> bindings)
{
    if (bindings.size() > kMaxInputs) {
        util::fatal("evaluation plan binds ", bindings.size(),
                    " inputs; at most ", kMaxInputs, " supported");
    }
    for (std::size_t i = 0; i < bindings.size(); ++i) {
        const EvalInput input = bindings[i];
        for (std::size_t j = 0; j < i; ++j) {
            if (bindings_[j] == input) {
                util::fatal("evaluation plan binds input '",
                            evalInputName(input), "' twice");
            }
        }
        if (input == EvalInput::Abatement)
            abatement_bound_ = true;
        bindings_[i] = input;
    }
    input_count_ = bindings.size();
}

EvalPlan
EvalPlan::forNode(const FabParams &fab, double nm,
                  std::span<const EvalInput> bindings)
{
    const auto &db = data::FabDatabase::instance();
    EvalPlan plan;
    plan.ci_fab_ = fab.ci_fab.value();
    plan.epa_ = db.epa(nm, fab.lookup).value();
    plan.gpa_ = db.gpa(nm, fab.abatement, fab.lookup).value();
    plan.mpa_ = db.mpa().value();
    plan.yield_ = fab.yield;
    plan.abatement_ = fab.abatement;
    const auto [at95, at99] = db.gpaColumns(nm, fab.lookup);
    plan.gpa95_ = at95;
    plan.gpa99_ = at99;
    plan.bind(bindings);
    return plan;
}

void
EvalPlan::evaluateBatch(std::size_t n, const double *const *inputs,
                        double *outputs) const
{
    // Resolve each bindable term to (pointer, stride): a bound input
    // reads its SoA column (stride 1), an unbound term re-reads its
    // compiled baseline (stride 0). The per-sample loops below are
    // then branchless.
    struct Term
    {
        const double *p;
        std::size_t stride;
    };
    Term ci{&ci_fab_, 0};
    Term yield{&yield_, 0};
    Term abatement{&abatement_, 0};
    for (std::size_t i = 0; i < input_count_; ++i) {
        const Term bound{inputs[i], 1};
        switch (bindings_[i]) {
        case EvalInput::CiFab:
            ci = bound;
            break;
        case EvalInput::Yield:
            yield = bound;
            break;
        case EvalInput::Abatement:
            abatement = bound;
            break;
        }
    }

    // Validation pass, in sample order with carbonPerArea()'s check
    // order (abatement before yield), hoisted so the compute loops
    // carry no fatal-path branches. An unbound yield is checked once;
    // an unbound abatement was checked by forNode().
    if (yield.stride == 0)
        checkYield(*yield.p);
    if (abatement_bound_ || yield.stride != 0) {
        for (std::size_t s = 0; s < n; ++s) {
            if (abatement_bound_)
                checkAbatementRange(abatement.p[s]);
            if (yield.stride != 0)
                checkYield(yield.p[s]);
        }
    }

    // Compute pass: Eq. 5 with carbonPerArea()'s expression shapes, so
    // same rounding, same bits.
    if (abatement_bound_) {
        // util::lerp spelled out; its (gpa99 - gpa95) is a loop
        // constant either way.
        const double gpa_span = gpa99_ - gpa95_;
        for (std::size_t s = 0; s < n; ++s) {
            const double t = (abatement.p[s] - 0.95) / (0.99 - 0.95);
            const double gpa_s = std::max(0.0, gpa95_ + gpa_span * t);
            outputs[s] =
                (ci.p[s * ci.stride] * epa_ + gpa_s + mpa_) /
                yield.p[s * yield.stride];
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s) {
        outputs[s] = (ci.p[s * ci.stride] * epa_ + gpa_ + mpa_) /
                     yield.p[s * yield.stride];
    }
}

} // namespace act::core

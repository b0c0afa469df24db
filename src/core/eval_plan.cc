#include "core/eval_plan.h"

#include <algorithm>

#include "data/carbon_intensity_db.h"
#include "data/fab_db.h"
#include "data/memory_db.h"
#include "util/interp.h"
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
    case EvalInput::Epa:
        return "epa";
    case EvalInput::Gpa:
        return "gpa";
    case EvalInput::Mpa:
        return "mpa";
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
        if (input == EvalInput::Abatement) {
            if (!has_gpa_columns_) {
                util::fatal("cannot bind 'abatement' on a raw-term plan: "
                            "no resolved GPA columns to interpolate");
            }
            abatement_bound_ = true;
        }
        if ((input == EvalInput::Epa || input == EvalInput::Gpa) &&
            has_gpa_columns_) {
            util::fatal("cannot bind '", evalInputName(input),
                        "' on a node-resolved plan; its value comes from "
                        "the Table 7 curves");
        }
        bindings_[i] = input;
    }
    input_count_ = bindings.size();
    if (abatement_bound_ && has_gpa_columns_) {
        for (std::size_t i = 0; i < input_count_; ++i) {
            if (bindings_[i] == EvalInput::Gpa) {
                util::fatal(
                    "evaluation plan binds both 'gpa' and 'abatement'");
            }
        }
    }
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
    plan.has_gpa_columns_ = true;
    plan.check_abatement_ = true;
    plan.bind(bindings);
    return plan;
}

EvalPlan
EvalPlan::forNodeNamed(const FabParams &fab, std::string_view node_label,
                       std::span<const EvalInput> bindings)
{
    const auto &db = data::FabDatabase::instance();
    const auto record = db.findByName(node_label);
    if (!record)
        util::fatal("unknown process node '", node_label, "'");
    EvalPlan plan;
    plan.ci_fab_ = fab.ci_fab.value();
    plan.epa_ = record->epa.value();
    plan.gpa95_ = record->gpa_abated_95.value();
    plan.gpa99_ = record->gpa_abated_99.value();
    plan.has_gpa_columns_ = true;
    // carbonPerAreaNamed() interpolates the row columns without the
    // curve path's range check; replay that exactly.
    plan.check_abatement_ = false;
    plan.mpa_ = db.mpa().value();
    plan.yield_ = fab.yield;
    plan.abatement_ = fab.abatement;
    const double t = (fab.abatement - 0.95) / (0.99 - 0.95);
    plan.gpa_ = std::max(0.0, util::lerp(plan.gpa95_, plan.gpa99_, t));
    plan.bind(bindings);
    return plan;
}

EvalPlan
EvalPlan::forRawCpa(const RawTerms &terms,
                    std::span<const EvalInput> bindings)
{
    EvalPlan plan;
    plan.ci_fab_ = terms.ci_fab;
    plan.epa_ = terms.epa;
    plan.gpa_ = terms.gpa;
    plan.mpa_ = terms.mpa;
    plan.yield_ = terms.yield;
    plan.bind(bindings);
    return plan;
}

double
EvalPlan::evaluateOne(const double *values) const
{
    double ci_fab = ci_fab_;
    double epa = epa_;
    double gpa = gpa_;
    double mpa = mpa_;
    double yield = yield_;
    double abatement = abatement_;
    for (std::size_t i = 0; i < input_count_; ++i) {
        const double value = values[i];
        switch (bindings_[i]) {
        case EvalInput::CiFab:
            ci_fab = value;
            break;
        case EvalInput::Epa:
            epa = value;
            break;
        case EvalInput::Gpa:
            gpa = value;
            break;
        case EvalInput::Mpa:
            mpa = value;
            break;
        case EvalInput::Yield:
            yield = value;
            break;
        case EvalInput::Abatement:
            abatement = value;
            break;
        }
    }
    if (abatement_bound_) {
        if (check_abatement_)
            checkAbatementRange(abatement);
        const double t = (abatement - 0.95) / (0.99 - 0.95);
        gpa = std::max(0.0, util::lerp(gpa95_, gpa99_, t));
    }
    checkYield(yield);
    return (ci_fab * epa + gpa + mpa) / yield;
}

void
EvalPlan::evaluateBatch(std::size_t n, const double *const *inputs,
                        double *outputs) const
{
    // Resolve each Eq. 5 term to (pointer, stride): a bound input
    // reads its SoA column (stride 1), an unbound term re-reads its
    // compiled baseline (stride 0). The per-sample loops below are
    // then branchless -- same arithmetic as evaluateOne(), expression
    // for expression.
    struct Term
    {
        const double *p;
        std::size_t stride;
    };
    Term ci{&ci_fab_, 0};
    Term epa{&epa_, 0};
    Term gpa{&gpa_, 0};
    Term mpa{&mpa_, 0};
    Term yield{&yield_, 0};
    Term abatement{&abatement_, 0};
    for (std::size_t i = 0; i < input_count_; ++i) {
        const Term bound{inputs[i], 1};
        switch (bindings_[i]) {
        case EvalInput::CiFab:
            ci = bound;
            break;
        case EvalInput::Epa:
            epa = bound;
            break;
        case EvalInput::Gpa:
            gpa = bound;
            break;
        case EvalInput::Mpa:
            mpa = bound;
            break;
        case EvalInput::Yield:
            yield = bound;
            break;
        case EvalInput::Abatement:
            abatement = bound;
            break;
        }
    }
    const bool recompute_gpa = abatement_bound_;

    // Validation pass, in sample order with evaluateOne()'s per-sample
    // check order (abatement before yield), hoisted so the compute
    // loops carry no fatal-path branches. Unbound terms are checked
    // once.
    const bool check_ab = recompute_gpa && check_abatement_;
    if (check_ab && abatement.stride == 0)
        checkAbatementRange(*abatement.p);
    if (yield.stride == 0)
        checkYield(*yield.p);
    const bool scan_ab = check_ab && abatement.stride != 0;
    if (scan_ab || yield.stride != 0) {
        for (std::size_t s = 0; s < n; ++s) {
            if (scan_ab)
                checkAbatementRange(abatement.p[s]);
            if (yield.stride != 0)
                checkYield(yield.p[s]);
        }
    }

    // Compute pass: Eq. 5 with evaluateOne()'s expression shapes, so
    // same rounding, same bits.
    if (recompute_gpa) {
        // util::lerp spelled out; its (gpa99 - gpa95) is a loop
        // constant either way.
        const double gpa_span = gpa99_ - gpa95_;
        for (std::size_t s = 0; s < n; ++s) {
            const double t =
                (abatement.p[s * abatement.stride] - 0.95) /
                (0.99 - 0.95);
            const double gpa_s = std::max(0.0, gpa95_ + gpa_span * t);
            outputs[s] = (ci.p[s * ci.stride] * epa.p[s * epa.stride] +
                          gpa_s + mpa.p[s * mpa.stride]) /
                         yield.p[s * yield.stride];
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s) {
        outputs[s] = (ci.p[s * ci.stride] * epa.p[s * epa.stride] +
                      gpa.p[s * gpa.stride] + mpa.p[s * mpa.stride]) /
                     yield.p[s * yield.stride];
    }
}

util::CarbonPerArea
EvalPlan::cpa() const
{
    checkYield(yield_);
    return util::gramsPerCm2((ci_fab_ * epa_ + gpa_ + mpa_) / yield_);
}

util::CarbonPerCapacity
EvalPlan::resolveTechnologyCps(std::string_view technology)
{
    return data::storageOrDie(technology).cps;
}

util::CarbonIntensity
EvalPlan::resolveRegionIntensity(std::string_view region)
{
    return data::regionIntensity(data::regionByName(region));
}

} // namespace act::core

/**
 * @file
 * Eq. 1, the top of the ACT model:
 *
 *   CF = OPCF + (T / LT) * ECF
 *
 * The embodied footprint is amortized over the hardware lifetime LT and
 * charged to an application in proportion to its execution time T.
 */

#ifndef ACT_CORE_FOOTPRINT_H
#define ACT_CORE_FOOTPRINT_H

#include <cstdint>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/units.h"

namespace act::core {

namespace detail {

/** The shared "core.eq1.evals" counter; combineFootprint() and
 *  countEq1Evals() both count through it. */
util::Counter &eq1Evals();

/** Cold half of Eq1Amortizer's T <= LT check. */
[[noreturn]] void
fatalExecutionExceedsLifetime(util::Duration execution_time,
                              util::Duration lifetime);

} // namespace detail

/** The result of an Eq. 1 evaluation, keeping both terms visible. */
struct CarbonFootprint
{
    util::Mass operational{};
    /** The lifetime-allocated share (T/LT) of embodied emissions. */
    util::Mass embodied_allocated{};

    util::Mass total() const { return operational + embodied_allocated; }

    /** Fraction of the total owed to embodied emissions; 0 when the
     *  total is zero. */
    double embodiedShare() const;
};

/**
 * Eq. 1. @p execution_time is the application run time T; @p lifetime
 * is the hardware lifetime LT (the paper cites 3-5 years for servers
 * and 2-3 years for mobile). Fatal when LT <= 0 or T < 0; T may exceed
 * LT only if the caller models whole-lifetime usage (T == LT).
 */
CarbonFootprint combineFootprint(util::Mass operational,
                                 util::Mass embodied_total,
                                 util::Duration execution_time,
                                 util::Duration lifetime);

/** Whole-lifetime footprint: Eq. 1 with T = LT. */
CarbonFootprint lifetimeFootprint(util::Mass operational,
                                  util::Mass embodied_total);

/**
 * Eq. 1's embodied term with LT fixed, for hot loops that charge many
 * executions against one hardware lifetime (e.g. fleet replay, which
 * needs it once per job x distinct lifetime and shares it across every
 * scenario with that lifetime). The LT > 0 check runs once at
 * construction; allocateEmbodied() then evaluates combineFootprint()'s
 * exact embodied expression and T-validation inline, fatal messages
 * included. It does not count: the caller adds the Eq. 1 evaluations
 * it stands for with countEq1Evals().
 */
class Eq1Amortizer
{
  public:
    explicit Eq1Amortizer(util::Duration lifetime) : lifetime_(lifetime)
    {
        if (util::asSeconds(lifetime) <= 0.0)
            util::fatal("hardware lifetime must be positive");
    }

    /** (T / LT) * ECF; bit-identical to combineFootprint(operational,
     *  embodied_total, execution_time, lifetime()).embodied_allocated. */
    util::Mass
    allocateEmbodied(util::Mass embodied_total,
                     util::Duration execution_time) const
    {
        if (util::asSeconds(execution_time) < 0.0)
            util::fatal("execution time must be non-negative");
        if (execution_time > lifetime_) {
            detail::fatalExecutionExceedsLifetime(execution_time,
                                                  lifetime_);
        }
        return embodied_total * (execution_time / lifetime_);
    }

    util::Duration lifetime() const { return lifetime_; }

  private:
    util::Duration lifetime_;
};

/** Add @p n Eq. 1 evaluations to "core.eq1.evals" in one step. */
inline void
countEq1Evals(std::uint64_t n)
{
    detail::eq1Evals().add(n);
}

} // namespace act::core

#endif // ACT_CORE_FOOTPRINT_H

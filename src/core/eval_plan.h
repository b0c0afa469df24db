/**
 * @file
 * The compiled Eq. 5 plan behind the cpa_montecarlo Monte Carlo
 * kernel: resolve a node's Table 7 EPA/GPA curve values, the Table 8
 * MPA and the FabParams baselines *once* into a dense plan of plain
 * doubles, then evaluate millions of samples against it with no
 * database lookups and no heap traffic per sample.
 *
 * The plan computes exactly the Eq. 5 arithmetic of
 * core::carbonPerArea():
 *
 *   CPA = (CI_fab * EPA + GPA(abatement) + MPA) / yield
 *
 * with the same operation order and the same range checks, so for any
 * input the compiled result is bit-identical to carbonPerArea() over a
 * correspondingly mutated FabParams. When `Abatement` is a bound
 * input, the plan keeps the two resolved abatement columns and replays
 * data::FabDatabase::gpa()'s interpolation per sample; otherwise GPA
 * folds to a constant at build time.
 *
 * Batched evaluation takes structure-of-arrays input columns
 * (`inputs[i][s]` is bound input i of sample s) and fills a dense
 * output array -- the kernel shape dse::monteCarloPlanChunk() feeds
 * from reused buffers.
 */

#ifndef ACT_CORE_EVAL_PLAN_H
#define ACT_CORE_EVAL_PLAN_H

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

#include "core/fab_params.h"

namespace act::core {

/** FabParams fields a compiled plan can bind to per-sample values. */
enum class EvalInput
{
    /** Fab carbon intensity, g CO2/kWh. */
    CiFab,
    /** Fab yield in (0, 1]. */
    Yield,
    /** Gaseous abatement fraction in [0.90, 1.0]. */
    Abatement,
};

/** Display name of an input ("ci_fab", "yield", ...). */
std::string_view evalInputName(EvalInput input);

/**
 * One compiled Eq. 5 evaluation: every database lookup resolved at
 * build time, every per-sample evaluation pure arithmetic over a
 * handful of doubles. Copyable and cheap to pass by value; safe to
 * share read-only across threads.
 */
class EvalPlan
{
  public:
    /** Most bound inputs a plan supports (one per EvalInput). */
    static constexpr std::size_t kMaxInputs = 3;

    /**
     * Compile for a feature size: EPA and the two GPA abatement
     * columns resolve through the Table 7 scaling curves (honoring
     * fab.lookup), MPA through Table 8, baselines from @p fab.
     * Fatal outside [3, 28] nm, on a bad abatement, or on duplicate
     * bindings.
     */
    static EvalPlan forNode(const FabParams &fab, double nm,
                            std::span<const EvalInput> bindings = {});

    /**
     * Batched evaluation over structure-of-arrays columns:
     * outputs[s] = Eq. 5 with binding i set to inputs[i][s], for s in
     * [0, n); unbound terms keep their compiled baselines. Fatal on a
     * yield outside (0, 1] or an abatement outside [0.90, 1.0],
     * mirroring carbonPerArea(), at the first failing sample.
     */
    void evaluateBatch(std::size_t n, const double *const *inputs,
                       double *outputs) const;

  private:
    EvalPlan() = default;

    void bind(std::span<const EvalInput> bindings);

    // Resolved baselines: Eq. 5 terms in their natural units.
    double ci_fab_ = 0.0;
    double epa_ = 0.0;
    double gpa_ = 0.0;
    double mpa_ = 0.0;
    double yield_ = 1.0;
    double abatement_ = 0.0;

    // GPA abatement columns at the resolved node.
    double gpa95_ = 0.0;
    double gpa99_ = 0.0;
    /** Abatement is bound, so GPA recomputes per sample. */
    bool abatement_bound_ = false;

    std::array<EvalInput, kMaxInputs> bindings_{};
    std::size_t input_count_ = 0;
};

} // namespace act::core

#endif // ACT_CORE_EVAL_PLAN_H

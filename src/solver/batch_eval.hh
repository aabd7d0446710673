/**
 * @file
 * Batched evaluation facet of a scalar objective.
 *
 * Every solver takes a type-erased `ScalarObjective`; the compiled
 * analytical objective (core/objective.cc) additionally evaluates
 * whole sets of points at once through the SIMD candidate-major
 * kernels (CompiledWorkload::estimateBatch). The subgradient's
 * central-difference gradient scores its 2n probes in one batch, and
 * pattern search scores the rest of a poll sweep speculatively from
 * its incumbent in one batch.
 *
 * Batched results are bit-identical to calling the scalar objective
 * per point, so a solver may use the facet opportunistically without
 * changing any result.
 *
 * The facet rides inside the `std::function`: `makeObjective` returns
 * a `BatchableObjective` wrapper, and solvers recover it with
 * `batchFacet()` (`std::function::target`). Objectives that are plain
 * lambdas — custom timing models, counting wrappers, tests — simply
 * yield no facet and every solver falls back to per-call evaluation.
 */

#ifndef LIBRA_SOLVER_BATCH_EVAL_HH
#define LIBRA_SOLVER_BATCH_EVAL_HH

#include <cstddef>
#include <memory>

#include "solver/subgradient.hh"

namespace libra {

/** The batched evaluation facet of an objective. */
class BatchEvaluable
{
  public:
    virtual ~BatchEvaluable() = default;

    /** Scalar evaluation; the std::function call forwards here. */
    virtual double evaluateOne(const Vec& x) const = 0;

    /**
     * Evaluate @p n candidates into @p out (per-candidate slots, so
     * results are deterministic at any thread count). Bit-identical
     * per candidate to evaluateOne.
     */
    virtual void evaluateBatch(const Vec* xs, std::size_t n,
                               double* out) const = 0;
};

/**
 * The concrete callable `makeObjective` stores in the ScalarObjective
 * when the batched facet is available. Copyable (shared impl), so the
 * std::function stays cheap to pass around.
 */
struct BatchableObjective
{
    std::shared_ptr<const BatchEvaluable> impl;

    double
    operator()(const Vec& x) const
    {
        return impl->evaluateOne(x);
    }
};

/**
 * Recover the batched-evaluation facet of @p f, or nullptr when @p f
 * is a plain callable. The facet shares @p f's lifetime.
 */
inline const BatchEvaluable*
batchFacet(const ScalarObjective& f)
{
    const auto* wrapper = f.target<BatchableObjective>();
    return wrapper ? wrapper->impl.get() : nullptr;
}

} // namespace libra

#endif // LIBRA_SOLVER_BATCH_EVAL_HH

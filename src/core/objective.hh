/**
 * @file
 * Optimization objectives (paper §IV-F).
 *
 * PerfOptBW minimizes the (weighted) end-to-end training time;
 * PerfPerCostOptBW minimizes time x network dollar cost — the reciprocal
 * of perf-per-cost. Multi-workload targets use a weighted sum; the
 * conventional weighting normalizes each workload by its EqualBW time so
 * no single large model dominates the ensemble (§VI-B).
 */

#ifndef LIBRA_CORE_OBJECTIVE_HH
#define LIBRA_CORE_OBJECTIVE_HH

#include <utility>
#include <vector>

#include "core/estimator.hh"
#include "cost/cost_model.hh"
#include "solver/batch_eval.hh"
#include "solver/subgradient.hh"

namespace libra {

/** Which quantity the optimizer minimizes. */
enum class OptimizationObjective
{
    PerfOpt,        ///< Minimize weighted training time.
    PerfPerCostOpt, ///< Minimize weighted training time x network cost.
};

/** Human-readable objective name. */
std::string objectiveName(OptimizationObjective o);

/** One target workload with its ensemble weight. */
struct TargetWorkload
{
    Workload workload;
    double weight = 1.0;
};

/** Weighted sum of per-workload iteration times at @p bw. */
Seconds weightedTime(const TrainingEstimator& estimator,
                     const std::vector<TargetWorkload>& targets,
                     const BwConfig& bw);

/**
 * Precompiled analytical objective: the weighted-time (optionally
 * x network-cost) function over per-workload CompiledWorkloads.
 *
 * Exposes the batched facet solvers recover with batchFacet():
 * candidate-major SIMD batches (evaluateBatch, blocked on the calling
 * thread), bit-identical to evaluateOne, which itself
 * performs exactly the historical scalar evaluation-order — one sum
 * over workloads in declaration order, then one cost multiply.
 *
 * Immutable after construction; shared by any number of solver
 * threads. Only valid under the built-in analytical timing model
 * (TrainingEstimator::usesAnalyticalTiming).
 */
class CompiledObjective final : public BatchEvaluable
{
  public:
    /** Compiles every target and reads @p cost_model's per-dimension
     *  prices once; @p estimator must outlive this objective. */
    CompiledObjective(OptimizationObjective objective,
                      const TrainingEstimator& estimator,
                      const CostModel& cost_model,
                      const std::vector<TargetWorkload>& targets);

    double evaluateOne(const Vec& x) const override;
    void evaluateBatch(const Vec* xs, std::size_t n,
                       double* out) const override;

  private:
    /** Panics unless @p x has one entry per network dimension. */
    void checkRank(const Vec& x) const;

    /** Cost factor under PerfPerCostOpt; 1-free pass for PerfOpt. */
    double applyCost(Seconds time, const Vec& x) const;

    OptimizationObjective objective_;
    const TrainingEstimator* estimator_;
    std::vector<std::pair<CompiledWorkload, double>> compiled_;
    Vec dollarPerGBps_; ///< CostModel::dollarPerGBps of each dimension.
    double npus_;       ///< The network's NPU count.
};

/**
 * Build the scalar objective f(B) minimized by the solver.
 * The estimator and targets must outlive the returned callable.
 *
 * Under the built-in analytical timing model the returned callable is
 * a BatchableObjective over a CompiledObjective, so solvers can
 * recover the batched facet with batchFacet(); custom
 * timing models fall back to a plain per-call lambda.
 */
ScalarObjective makeObjective(OptimizationObjective objective,
                              const TrainingEstimator& estimator,
                              const CostModel& cost_model,
                              const std::vector<TargetWorkload>& targets);

/**
 * Importance weights that normalize each workload by its EqualBW time
 * at @p total_bw, so every ensemble member counts equally.
 */
std::vector<TargetWorkload>
normalizeWeights(const TrainingEstimator& estimator,
                 std::vector<TargetWorkload> targets, double total_bw);

} // namespace libra

#endif // LIBRA_CORE_OBJECTIVE_HH

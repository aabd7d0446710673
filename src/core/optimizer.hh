/**
 * @file
 * The LIBRA bandwidth optimizer (paper §IV-E/F).
 *
 * Given a network shape, a cost model, target workloads, an objective,
 * and user design constraints, finds the per-dimension bandwidth
 * configuration that minimizes the objective. PerfOptBW pins the total
 * per-NPU bandwidth to the budget (spending less can never help);
 * PerfPerCostOptBW may spend less than the budget when the marginal
 * bandwidth costs more than it speeds up.
 */

#ifndef LIBRA_CORE_OPTIMIZER_HH
#define LIBRA_CORE_OPTIMIZER_HH

#include <string>
#include <vector>

#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/multistart.hh"

namespace libra {

/** Optimizer knobs. */
struct OptimizerConfig
{
    OptimizationObjective objective = OptimizationObjective::PerfOpt;
    double totalBw = 1000.0;        ///< Per-NPU BW budget (GB/s).
    double minDimBw = 0.1;          ///< Floor per dimension (GB/s).
    std::vector<std::string> constraints; ///< Extra text constraints.
    EstimatorOptions estimator;     ///< Loop / in-network options.
    MultistartOptions search;       ///< Solver configuration.
    double budgetCap = 0.0;         ///< Optional dollar cap (0 = none).

    /**
     * Treat totalBw as an upper bound even for PerfOpt. Used by
     * iso-cost studies (Fig. 19) where the binding constraint is the
     * dollar cap, not the BW budget.
     */
    bool relaxTotalBw = false;
};

/** A solved design point. */
struct OptimizationResult
{
    BwConfig bw;                    ///< Per-dimension GB/s.
    Seconds weightedTime = 0.0;     ///< Objective-weighted time.
    Dollars cost = 0.0;             ///< Network dollar cost.
    double objectiveValue = 0.0;    ///< Raw objective at bw.
    std::vector<Seconds> perWorkloadTime; ///< Aligned with targets.
};

/** Workload-aware bandwidth optimizer for one network shape. */
class BwOptimizer
{
  public:
    BwOptimizer(Network net, CostModel cost_model);

    const Network& network() const { return net_; }
    const CostModel& costModel() const { return costModel_; }

    /**
     * Optimize the BW split for @p targets under @p config. Under a
     * backend that searchesAnalytically(), the multistart runs under
     * the analytical model and only a final polish, the EqualBW guard
     * and the reported evaluation run under the backend.
     * @throws FatalError on infeasible constraint sets.
     */
    OptimizationResult optimize(const std::vector<TargetWorkload>& targets,
                                const OptimizerConfig& config) const;

    /** The EqualBW straw-person baseline at the same budget. */
    OptimizationResult
    baseline(const std::vector<TargetWorkload>& targets,
             const OptimizerConfig& config) const;

    /** Evaluate an explicit BW config under @p config's estimator. */
    OptimizationResult
    evaluate(const BwConfig& bw,
             const std::vector<TargetWorkload>& targets,
             const OptimizerConfig& config) const;

  private:
    ConstraintSet buildConstraints(const OptimizerConfig& config) const;

    Network net_;
    CostModel costModel_;
};

} // namespace libra

#endif // LIBRA_CORE_OPTIMIZER_HH

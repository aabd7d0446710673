/**
 * @file
 * Design-space declaration for outer-loop exploration studies.
 *
 * The paper's headline explorations (Fig. 16 topology shapes, Fig. 17
 * workload groups, Fig. 18 cost sensitivity, Fig. 21 parallelization
 * co-design) are all discrete outer loops wrapped around the continuous
 * bandwidth optimizer. A DesignSpace reifies that outer loop as data:
 * it declares the discrete axes — topology shape (building-block
 * composition per dimension, which also fixes the NPU scale), workload
 * variant (including parallelization strategy and group membership),
 * cost model, per-NPU bandwidth budget, and objective — and expands
 * lazily to candidate LibraInputs.
 *
 * Expansion order is fixed and documented: topologies (slowest), then
 * workloads, then costs, then budgets, then objectives (fastest). The
 * registered paper scenarios rely on this order matching their
 * historical hand-rolled nested loops bit for bit, so the matrix
 * runner's dedup/caching and the golden figures are unaffected by the
 * refactor onto this layer.
 *
 * Every candidate carries its axis labels, so formatters emit explicit
 * per-row identity instead of re-deriving it from index arithmetic.
 */

#ifndef LIBRA_EXPLORE_DESIGN_SPACE_HH
#define LIBRA_EXPLORE_DESIGN_SPACE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/framework.hh"

namespace libra {

/** One topology-shape candidate (the composition fixes the scale). */
struct TopologyChoice
{
    std::string label; ///< Row label, e.g. "3D-512".
    std::string shape; ///< Composition, e.g. "SW(16)_SW(8)_SW(4)".
};

/**
 * One workload variant: a target-list builder at the candidate
 * network's NPU count. Multi-member lists express group-optimization
 * candidates (Fig. 17); @p normalizeWeights selects the 1/T_EqualBW
 * importance weighting for them.
 *
 * @p targets must be a pure function of the NPU count: expansion calls
 * it once per distinct (variant, NPU count) and copies the result into
 * every candidate that shares the pair.
 */
struct WorkloadChoice
{
    std::string label;
    std::function<std::vector<TargetWorkload>(long npus)> targets;
    bool normalizeWeights = false;
};

/** One cost-model variant (Fig. 18's price sweep). */
struct CostChoice
{
    std::string label;
    CostModel model = CostModel::defaultModel();
};

/**
 * The declared axes of one exploration study. topologies, workloads,
 * budgets, and objectives must be non-empty; an empty costs axis means
 * the default cost model (and contributes no label).
 */
struct DesignSpace
{
    std::vector<TopologyChoice> topologies;
    std::vector<WorkloadChoice> workloads;
    std::vector<CostChoice> costs;
    std::vector<double> budgets;
    std::vector<OptimizationObjective> objectives;

    /** Search configuration applied to every candidate. */
    MultistartOptions search;

    /** Estimator options applied to every candidate. */
    EstimatorOptions estimator;
};

/** One expanded candidate: axis labels plus ready-to-run inputs. */
struct Candidate
{
    std::size_t index = 0;   ///< Position in expansion order.
    std::string topology;    ///< TopologyChoice label.
    std::string workload;    ///< WorkloadChoice label.
    std::string cost;        ///< CostChoice label ("" = default model).
    double budget = 0.0;
    OptimizationObjective objective = OptimizationObjective::PerfOpt;
    LibraInputs inputs;
};

/**
 * Number of candidates @p space expands to.
 * @throws FatalError when a required axis is empty.
 */
std::size_t candidateCount(const DesignSpace& space);

/**
 * Lazily materialize candidate @p index (mixed-radix decode of the
 * fixed axis order; objectives vary fastest, topologies slowest).
 * Builds only that candidate's workload targets.
 * @throws FatalError when @p index is out of range.
 */
Candidate candidateAt(const DesignSpace& space, std::size_t index);

/** Materialize every candidate in expansion order, each equal to its
 *  candidateAt; a variant's targets are built once per NPU count. */
std::vector<Candidate> expandDesignSpace(const DesignSpace& space);

} // namespace libra

#endif // LIBRA_EXPLORE_DESIGN_SPACE_HH

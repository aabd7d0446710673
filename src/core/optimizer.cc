#include "core/optimizer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/timing_backend.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"
#include "solver/water_fill.hh"

namespace libra {

namespace {

/**
 * Non-finite budgets or weights poison every objective value the
 * solvers compare, so they are user errors, not search inputs.
 */
void
requireFiniteInputs(const std::vector<TargetWorkload>& targets,
                    const OptimizerConfig& config)
{
    if (!(std::isfinite(config.totalBw) &&
          std::isfinite(config.minDimBw) &&
          std::isfinite(config.budgetCap))) {
        fatal("optimizer budgets must be finite, got total BW ",
              config.totalBw, ", min dim BW ", config.minDimBw,
              ", dollar cap ", config.budgetCap);
    }
    for (const auto& target : targets) {
        if (!std::isfinite(target.weight))
            fatal("workload ", target.workload.name,
                  " weight must be finite, got ", target.weight);
    }
}

/** The hinted multistart search of @p f under @p estimator. */
SearchResult
hintedSearch(const Network& net, const TrainingEstimator& estimator,
             const ScalarObjective& f, const ConstraintSet& cs,
             const std::vector<TargetWorkload>& targets,
             const OptimizerConfig& config)
{
    // Warm start: size each dimension proportionally to the busy time
    // it accrues under EqualBW — the single-collective closed form,
    // which is near-optimal for collective-dominated workloads.
    Vec hint = net.equalBw(config.totalBw);
    Vec busy(net.numDims(), 0.0);
    for (const auto& target : targets) {
        EstimateDetail d = estimator.detail(target.workload, hint);
        for (std::size_t i = 0; i < busy.size(); ++i)
            busy[i] += target.weight * d.dimBusy[i];
    }
    double totalBusy = 0.0;
    for (double b : busy)
        totalBusy += b;
    if (totalBusy > 0.0) {
        hint = proportionalAllocation(busy, config.totalBw,
                                      config.minDimBw);
    }
    return multistartMinimize(f, cs, hint, config.search);
}

/**
 * The backend polish of a cross-fidelity search: one compass search
 * from the analytical winner with the multistart's final-polish step
 * (2%). Under MAX_EVALS N it spends at most N backend evaluations,
 * its start point included: patternSearch evaluates its start, then
 * polls whole coordinate pairs, so it may overrun its poll cap by one.
 */
PatternSearchOptions
backendPolishOptions(const MultistartOptions& search)
{
    PatternSearchOptions polish;
    polish.initialStep = 0.02;
    if (search.maxEvalsPerStart > 0) {
        polish.maxIterations = static_cast<int>(std::min<long long>(
            polish.maxIterations,
            std::max<long long>(search.maxEvalsPerStart - 2, 0)));
    }
    return polish;
}

} // namespace

BwOptimizer::BwOptimizer(Network net, CostModel cost_model)
    : net_(std::move(net)), costModel_(std::move(cost_model))
{}

ConstraintSet
BwOptimizer::buildConstraints(const OptimizerConfig& config) const
{
    ConstraintSet cs(net_.numDims());
    // Both schemes allocate the full per-NPU budget across dimensions
    // (the paper's problem statement: distribute a given BW resource).
    // PerfPerCost differs in *where* the bandwidth goes, not how much is
    // bought — which is why its speedup can drop below 1 while its
    // perf-per-cost rises. relaxTotalBw turns the budget into a ceiling
    // for dollar-capped (iso-cost) studies.
    Relation rel = config.relaxTotalBw ? Relation::Le : Relation::Eq;
    cs.addTotalBw(config.totalBw, rel);
    cs.addLowerBounds(config.minDimBw);
    for (const auto& text : config.constraints)
        cs.addParsed(text);
    if (config.budgetCap > 0.0) {
        // Dollar cap is linear in B: sum_i rate_i * Bi * npus <= cap.
        Vec coeffs(net_.numDims());
        for (std::size_t i = 0; i < net_.numDims(); ++i) {
            coeffs[i] = costModel_.dollarPerGBps(net_.dim(i)) *
                        static_cast<double>(net_.npus());
        }
        cs.add(coeffs, Relation::Le, config.budgetCap, "dollar-cap");
    }
    return cs;
}

OptimizationResult
BwOptimizer::evaluate(const BwConfig& bw,
                      const std::vector<TargetWorkload>& targets,
                      const OptimizerConfig& config) const
{
    TrainingEstimator estimator(net_, config.estimator);
    OptimizationResult r;
    r.bw = bw;
    r.cost = costModel_.networkCost(net_, bw);
    r.weightedTime = weightedTime(estimator, targets, bw);
    for (const auto& target : targets)
        r.perWorkloadTime.push_back(estimator.estimate(target.workload,
                                                       bw));
    auto f = makeObjective(config.objective, estimator, costModel_,
                           targets);
    r.objectiveValue = f(bw);
    return r;
}

OptimizationResult
BwOptimizer::baseline(const std::vector<TargetWorkload>& targets,
                      const OptimizerConfig& config) const
{
    requireFiniteInputs(targets, config);
    return evaluate(net_.equalBw(config.totalBw), targets, config);
}

OptimizationResult
BwOptimizer::optimize(const std::vector<TargetWorkload>& targets,
                      const OptimizerConfig& config) const
{
    if (targets.empty())
        fatal("optimizer needs at least one target workload");
    requireFiniteInputs(targets, config);

    TrainingEstimator estimator(net_, config.estimator);
    auto f = makeObjective(config.objective, estimator, costModel_,
                           targets);
    ConstraintSet cs = buildConstraints(config);

    SearchResult best;
    if (resolveTimingBackend(config.estimator.timingBackend)
            ->searchesAnalytically()) {
        // Cross-fidelity search (docs/BACKENDS.md): the analytical
        // model tracks this backend closely, so the hint and the whole
        // multistart run analytically, and the backend's costly
        // evaluations go only to one short polish of the analytical
        // winner. The polish starts from the winner's backend value
        // and returns a point no worse, so it keeps the better of the
        // polished and unpolished designs under f.
        EstimatorOptions analyticalOptions = config.estimator;
        analyticalOptions.timingBackend.clear();
        TrainingEstimator analytical(net_, analyticalOptions);
        auto fAnalytical = makeObjective(config.objective, analytical,
                                         costModel_, targets);
        SearchResult coarse =
            hintedSearch(net_, analytical, fAnalytical, cs, targets,
                         config);
        best = patternSearch(f, cs, coarse.x,
                             backendPolishOptions(config.search));
    } else {
        best = hintedSearch(net_, estimator, f, cs, targets, config);
    }

    // The EqualBW point is always a feasible candidate; never report a
    // design worse than the straw-person.
    Vec equal = net_.equalBw(config.totalBw);
    if (cs.feasible(equal, 1e-9) && f(equal) < best.value)
        best.x = equal;

    return evaluate(best.x, targets, config);
}

} // namespace libra

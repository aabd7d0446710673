/**
 * @file
 * Deterministic multistart driver over an ordered strategy pipeline.
 *
 * PerfPerCostOptBW (time x dollars) is non-convex, so a single descent
 * can land in a local minimum; the driver seeds a pipeline of
 * registered search strategies (see solver/strategy.hh) from several
 * deterministic random feasible points (plus the caller's hint) and
 * keeps the best feasible result. The default pipeline is the classic
 * subgradient -> pattern-search -> Nelder-Mead chain; study files and
 * the CLI can select any registered pipeline (e.g.
 * "pattern-search,nelder-mead") without touching the driver.
 *
 * Restarts are independent, so they run concurrently on the global
 * thread pool. Each start draws its point from its own seeded RNG
 * stream (derived from `seed` and the start index), every pipeline
 * stage is a deterministic function of its start point, and the
 * winner is selected in start-index order with ties broken toward the
 * lower index — so the result is bit-identical at any thread count.
 * Requires the objective to be const-callable from multiple threads
 * (true for all built-in objectives).
 */

#ifndef LIBRA_SOLVER_MULTISTART_HH
#define LIBRA_SOLVER_MULTISTART_HH

#include <string>
#include <vector>

#include "solver/constraint_set.hh"
#include "solver/subgradient.hh"

namespace libra {

/** Options for the multistart driver. */
struct MultistartOptions
{
    int starts = 8;              ///< Random starts besides the hint.
    std::uint64_t seed = 0x11BAa;

    /**
     * Ordered strategy-pipeline spec (registry names, run in order
     * from each start). Empty selects the default chain subgradient ->
     * pattern-search -> nelder-mead.
     */
    std::vector<std::string> pipeline;

    /**
     * Objective-evaluation budget per start, shared by that start's
     * pipeline stages (see EvalBudget). It also caps the polls of the
     * driver's final polish at N, but that polish scores its start
     * point too and may finish the coordinate pair it began, so it
     * can spend N + 2 evaluations. 0 = unlimited: the strategies' own
     * iteration caps bind first.
     */
    long long maxEvalsPerStart = 0;
};

/** The pipeline names `options` resolves to (default chain if empty). */
std::vector<std::string>
multistartPipelineNames(const MultistartOptions& options);

/**
 * Derive a cheap screening configuration from @p full: @p starts
 * random starts (besides the hint) and @p max_evals objective
 * evaluations per start, with the seed, pipeline, and every other
 * knob unchanged — so a screening run explores a prefix of the same
 * deterministic search the full budget would. The exploration layer's
 * "prune" strategy ranks candidates with these before promoting the
 * survivors to the full budget.
 */
MultistartOptions screeningOptions(MultistartOptions full, int starts,
                                   long long max_evals);

/**
 * Minimize @p f over @p constraints. @p hint provides both the first
 * start and the magnitude scale for random starts. Throws FatalError
 * when no start ends feasible with a finite objective value.
 */
SearchResult multistartMinimize(const ScalarObjective& f,
                                const ConstraintSet& constraints,
                                const Vec& hint,
                                MultistartOptions options = {});

} // namespace libra

#endif // LIBRA_SOLVER_MULTISTART_HH

/**
 * @file
 * Projected compass (pattern) search.
 *
 * Derivative-free polish step used on both objectives: polls +/- steps
 * along every coordinate, projects each poll point back onto the design
 * constraints, and shrinks the step when no poll improves. Works on the
 * non-convex PerfPerCostOptBW objective where gradient methods can stall.
 * Objectives with the batched facet score a sweep's remaining polls in
 * one batch (see patternSearch); the result is bit-identical to the
 * one-call-at-a-time search.
 */

#ifndef LIBRA_SOLVER_PATTERN_SEARCH_HH
#define LIBRA_SOLVER_PATTERN_SEARCH_HH

#include "solver/constraint_set.hh"
#include "solver/subgradient.hh"

namespace libra {

/** Options for projected compass search. */
struct PatternSearchOptions
{
    double initialStep = 0.25;  ///< Relative to max(|x0|, 1) per coord.
    double minStep = 1e-7;      ///< Relative stop threshold.
    int maxIterations = 4000;   ///< Total poll evaluations cap.
};

/**
 * Minimize @p f over @p constraints from feasible @p x0 by projected
 * compass search. Always returns a feasible point no worse than x0.
 */
SearchResult patternSearch(const ScalarObjective& f,
                           const ConstraintSet& constraints, const Vec& x0,
                           PatternSearchOptions options = {});

} // namespace libra

#endif // LIBRA_SOLVER_PATTERN_SEARCH_HH

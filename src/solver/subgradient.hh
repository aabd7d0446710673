/**
 * @file
 * Projected subgradient descent for convex objectives over a polyhedron.
 *
 * The PerfOptBW objective — a weighted sum over layers of
 * max_i(traffic_i / B_i) terms — is convex in B on the positive orthant,
 * so projected subgradient with diminishing steps converges to the global
 * optimum. Subgradients are taken numerically (central differences), which
 * is exact almost everywhere for this piecewise-smooth objective.
 */

#ifndef LIBRA_SOLVER_SUBGRADIENT_HH
#define LIBRA_SOLVER_SUBGRADIENT_HH

#include <functional>

#include "solver/constraint_set.hh"
#include "solver/matrix.hh"

namespace libra {

/** Scalar objective over the bandwidth vector. */
using ScalarObjective = std::function<double(const Vec&)>;

/** Default relative step of the central-difference gradient. */
inline constexpr double kGradientRelStep = 1e-6;

/**
 * Central-difference gradient of @p f at @p x with relative step.
 * When @p f carries the batched facet (solver/batch_eval.hh) all 2n
 * probes are scored in one evaluateBatch call; the result is
 * bit-identical to per-probe calls.
 */
Vec numericGradient(const ScalarObjective& f, const Vec& x,
                    double rel_step = kGradientRelStep);

/** Result of an iterative minimization. */
struct SearchResult
{
    Vec x;
    double value = 0.0;
    int iterations = 0;
};

/** Options for the projected subgradient loop. */
struct SubgradientOptions
{
    int maxIterations = 600;
    double initialStep = 0.25;   ///< Relative to ||x0||.
    double tol = 1e-10;          ///< Stop when best stops improving.
    int patience = 120;          ///< Iterations without improvement.
};

/**
 * Minimize convex @p f over @p constraints starting from feasible @p x0.
 * Tracks and returns the best feasible iterate.
 */
SearchResult projectedSubgradient(const ScalarObjective& f,
                                  const ConstraintSet& constraints,
                                  const Vec& x0,
                                  SubgradientOptions options = {});

} // namespace libra

#endif // LIBRA_SOLVER_SUBGRADIENT_HH

/**
 * @file
 * Feasible-point search via cyclic alternating projections.
 *
 * Each linear constraint admits a closed-form Euclidean projection
 * (hyperplane for equalities, half-space for inequalities); cycling those
 * projections converges to a point of the intersection whenever the
 * polyhedron is non-empty (von Neumann / Bregman). The QP solver uses the
 * result as its phase-1 starting point.
 */

#ifndef LIBRA_SOLVER_FEASIBLE_HH
#define LIBRA_SOLVER_FEASIBLE_HH

#include "solver/constraint_set.hh"
#include "solver/matrix.hh"

namespace libra {

/**
 * Move @p x into @p constraints by cyclic projection sweeps.
 *
 * @param constraints Polyhedron to land in.
 * @param x           Start (numVars() entries), updated in place.
 * @param tol         Target max violation.
 * @param max_sweeps  Sweeps before giving up (at least one runs).
 * @return maxViolation(*x), the value the last sweep checked: <= tol
 *         when the set is non-empty; otherwise x is the best point
 *         found.
 */
double findFeasiblePoint(const ConstraintSet& constraints, Vec* x,
                         double tol = 1e-10, int max_sweeps = 20000);

} // namespace libra

#endif // LIBRA_SOLVER_FEASIBLE_HH

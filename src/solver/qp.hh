/**
 * @file
 * Euclidean projection onto the linear design-constraint polyhedron.
 *
 * This is the in-repo replacement for the commercial QP solver the paper
 * uses (Gurobi): LIBRA's bandwidth-allocation searches only ever need
 * projections, min ||x - point||^2 s.t. A x = b, G x <= h, which a
 * primal active-set method solves exactly.
 */

#ifndef LIBRA_SOLVER_QP_HH
#define LIBRA_SOLVER_QP_HH

#include "solver/constraint_set.hh"
#include "solver/matrix.hh"

namespace libra {

/**
 * Euclidean projection of @p point onto the polyhedron described by
 * @p constraints: argmin ||x - point||^2 s.t. constraints. Solved as a QP
 * with Q = I starting from an alternating-projection feasible point.
 * The QP's matrices, its KKT system and its working set live in one
 * per-call workspace (inline storage, heap only for problems past it),
 * so for the problem sizes LIBRA builds a call allocates nothing
 * beyond growing @p out to numVars() entries. @p out may alias
 * @p point. Safe to call concurrently.
 *
 * @throws FatalError when the constraint set is (numerically) infeasible.
 */
void projectOntoConstraints(const ConstraintSet& constraints,
                            const Vec& point, Vec* out);

/** projectOntoConstraints() into a new vector. */
Vec projectOntoConstraints(const ConstraintSet& constraints,
                           const Vec& point);

} // namespace libra

#endif // LIBRA_SOLVER_QP_HH

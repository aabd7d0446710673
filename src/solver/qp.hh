/**
 * @file
 * Primal active-set solver for small convex quadratic programs.
 *
 *     minimize   1/2 x'Qx + c'x
 *     subject to A x  = b
 *                G x <= h
 *
 * This is the in-repo replacement for the commercial QP solver the paper
 * uses (Gurobi): LIBRA's bandwidth-allocation searches only ever need
 * projections onto the linear design-constraint polyhedron (Q = I) and
 * small quadratic subproblems, both of which this solver handles exactly.
 */

#ifndef LIBRA_SOLVER_QP_HH
#define LIBRA_SOLVER_QP_HH

#include "solver/constraint_set.hh"
#include "solver/matrix.hh"

namespace libra {

/** Outcome of a QP solve. */
struct QpResult
{
    Vec x;                  ///< Final iterate.
    double objective = 0.0; ///< 1/2 x'Qx + c'x at x.
    bool converged = false; ///< KKT conditions met within tolerance.
    int iterations = 0;     ///< Active-set iterations used.
};

/** Working-set tolerance and iteration cap for the QP solver. */
struct QpOptions
{
    double tol = 1e-9;
    int maxIterations = 200;
};

/** Convex QP over explicit matrices. Q must be positive definite. */
class QpSolver
{
  public:
    QpSolver(Matrix q, Vec c, Matrix a_eq, Vec b_eq, Matrix g_le, Vec h_le,
             QpOptions options = {});

    /**
     * Run the active-set method from a feasible start. The same routine
     * runs every projectOntoConstraints() call.
     *
     * @param x0 Feasible initial point (see findFeasiblePoint()).
     */
    QpResult solve(const Vec& x0) const;

  private:
    Matrix q_;
    Vec c_;
    Matrix aEq_;
    Vec bEq_;
    Matrix gLe_;
    Vec hLe_;
    QpOptions options_;
};

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

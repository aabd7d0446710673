#include "solver/feasible.hh"

#include <cmath>

namespace libra {

namespace {

/** Project x onto one constraint in place; no-op when satisfied. */
void
projectOne(const LinearConstraint& c, Vec* x)
{
    const double a2 = c.normSq;
    if (a2 <= 0.0)
        return;
    double lhs = dot(c.coeffs, *x);
    double shift = 0.0;
    switch (c.rel) {
      case Relation::Eq:
        shift = (c.rhs - lhs) / a2;
        break;
      case Relation::Le:
        if (lhs > c.rhs)
            shift = (c.rhs - lhs) / a2;
        break;
      case Relation::Ge:
        if (lhs < c.rhs)
            shift = (c.rhs - lhs) / a2;
        break;
    }
    if (shift != 0.0) {
        for (std::size_t i = 0; i < x->size(); ++i)
            (*x)[i] = (*x)[i] + shift * c.coeffs[i];
    }
}

} // namespace

double
findFeasiblePoint(const ConstraintSet& constraints, Vec* x, double tol,
                  int max_sweeps)
{
    for (int sweep = 1;; ++sweep) {
        for (const auto& c : constraints.constraints())
            projectOne(c, x);
        const double worst = constraints.maxViolation(*x);
        if (worst <= tol || sweep >= max_sweeps)
            return worst;
    }
}

} // namespace libra

#include "solver/feasible.hh"

#include <cmath>

namespace libra {

namespace {

/** Project x onto one constraint in place; no-op when satisfied. */
void
projectOne(const LinearConstraint& c, Vec* x)
{
    double a2 = dot(c.coeffs, c.coeffs);
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

Vec
findFeasiblePoint(const ConstraintSet& constraints, const Vec& hint,
                  double tol, int max_sweeps)
{
    Vec x = hint;
    x.resize(constraints.numVars(), 0.0);

    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        for (const auto& c : constraints.constraints())
            projectOne(c, &x);
        if (constraints.maxViolation(x) <= tol)
            break;
    }
    return x;
}

} // namespace libra
